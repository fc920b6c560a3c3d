// Command iodoctor runs one ENZO configuration under the observability
// layer (or loads a previously saved report) and diagnoses its I/O:
// critical-path attribution across the stack, detectors for the paper's
// pathologies (small scattered writes, collective-buffering mismatch, rank
// imbalance, straggler servers, sieving amplification, unhidden async
// time), candidate hint deltas, and report-vs-report regression diffs.
//
// Usage:
//
//	iodoctor [-machine chiba] [-fs pvfs] [-backend mpiio] [-problem AMR128]
//	         [-np 8] [-membudget MIB] [-quick] [-codec none] [-async] [-scrub] [-cbnodes N]
//	         [-autotune] [-probe-report FILE]
//	         [-straggler FACTOR] [-corrupt N] [-castore] [-replicas K]
//	         [-format text|json|metrics] [-o FILE] [-report FILE]
//	         [-diff BASELINE.json] [-fail-on none|warning|critical]
//
// -report loads a JSON document written earlier with -format json instead
// of running a simulation; -diff compares a baseline document against the
// current run (or -report) and emits regression findings. With -o and
// -format json the findings table still goes to stdout, so one invocation
// serves both humans and artifact collection. -fail-on exits 3 when any
// finding reaches the given severity.
//
// -autotune runs the short probe first, feeds its report through the
// detector registry, and applies the derived hint deltas to the main run;
// -probe-report saves the probe's diagnosis document (report + chosen
// deltas) as a JSON artifact. Neither combines with -report, which skips
// the simulation entirely; nor does a non-zero -cbnodes.
//
// All output derives from deterministic virtual-time telemetry: repeated
// runs of the same configuration produce byte-identical bytes.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"

	"repro/cmd/internal/runflags"
	"repro/internal/diag"
	"repro/internal/enzo"
	"repro/internal/obs"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fl := flag.NewFlagSet("iodoctor", flag.ContinueOnError)
	fl.SetOutput(stderr)
	rf := runflags.Register(fl, runflags.Defaults{Machine: "chiba", FS: "pvfs", Problem: "AMR128", Quick: true, Faults: true})
	cbnodes := fl.Int("cbnodes", 0, "override the cb_nodes hint (0 = ROMIO default, one aggregator per node)")
	probeReport := fl.String("probe-report", "", "write the -autotune probe's diagnosis document (report + chosen deltas) here")
	format := fl.String("format", "text", "output format: text, json or metrics (OpenMetrics)")
	outPath := fl.String("o", "", "write the formatted output here (default stdout)")
	reportPath := fl.String("report", "", "load a saved -format json document instead of running")
	diffPath := fl.String("diff", "", "baseline -format json document to diff the current report against")
	failOn := fl.String("fail-on", "none", "exit 3 if any finding reaches this severity: none, warning or critical")
	if err := fl.Parse(args); err != nil {
		return 2
	}

	fail := func(format string, args ...any) int {
		fmt.Fprintf(stderr, "iodoctor: "+format+"\n", args...)
		fl.Usage()
		return 2
	}

	switch *format {
	case "text", "json", "metrics":
	default:
		return fail("unknown -format %q (want text, json or metrics)", *format)
	}
	if *cbnodes < 0 {
		return fail("-cbnodes %d is negative (0 = ROMIO default)", *cbnodes)
	}
	var failSev diag.Severity
	switch *failOn {
	case "none":
		failSev = diag.SevCritical + 1
	case "warning":
		failSev = diag.SevWarn
	case "critical":
		failSev = diag.SevCritical
	default:
		return fail("unknown -fail-on %q (want none, warning or critical)", *failOn)
	}

	var rep *diag.Report
	var tuneDeltas []diag.HintsDelta
	if *reportPath != "" {
		if rf.AutoTune {
			return fail("-autotune needs a simulation run, not -report")
		}
		if *probeReport != "" {
			return fail("-probe-report needs -autotune, not -report")
		}
		if *cbnodes != 0 {
			return fail("-cbnodes needs a simulation run, not -report")
		}
		var err error
		rep, err = loadReport(*reportPath)
		if err != nil {
			fmt.Fprintln(stderr, "error:", err)
			return 1
		}
	} else {
		if *probeReport != "" && !rf.AutoTune {
			return fail("-probe-report needs -autotune")
		}
		spec, err := rf.Resolve()
		if err != nil {
			return fail("%v", err)
		}
		spec.Config.CBNodes = *cbnodes

		var probeRep *diag.Report
		if tuneDeltas, probeRep, err = rf.Tune(&spec); err != nil {
			fmt.Fprintln(stderr, "error:", err)
			return 1
		}
		if *probeReport != "" {
			doc := diag.Document{Report: probeRep, Suggestions: tuneDeltas}
			b, err := json.MarshalIndent(doc, "", "  ")
			if err != nil {
				fmt.Fprintln(stderr, "error:", err)
				return 1
			}
			if err := os.WriteFile(*probeReport, append(b, '\n'), 0o644); err != nil {
				fmt.Fprintln(stderr, "error:", err)
				return 1
			}
		}

		tr := obs.NewTracer()
		spec.Tracer = tr
		res, err := enzo.Run(spec)
		if err != nil {
			fmt.Fprintln(stderr, "error:", err)
			return 1
		}
		rep = diag.Snapshot(tr, diag.MetaFromResult(rf.Machine, res, spec.Config))
	}

	var findings []diag.Finding
	var suggestions []diag.HintsDelta
	if *diffPath != "" {
		base, err := loadReport(*diffPath)
		if err != nil {
			fmt.Fprintln(stderr, "error:", err)
			return 1
		}
		findings = diag.Diff(base, rep)
	} else {
		findings = diag.Analyze(rep)
		suggestions = diag.Suggest(rep)
	}

	out := stdout
	if *outPath != "" {
		f, err := os.Create(*outPath)
		if err != nil {
			fmt.Fprintln(stderr, "error:", err)
			return 1
		}
		defer f.Close()
		out = f
	}
	switch *format {
	case "json":
		doc := diag.Document{Report: rep, Findings: findings, Suggestions: suggestions}
		enc := json.NewEncoder(out)
		enc.SetIndent("", "  ")
		if err := enc.Encode(doc); err != nil {
			fmt.Fprintln(stderr, "error:", err)
			return 1
		}
		if *outPath != "" {
			// One invocation serves both the artifact and the log.
			diag.WriteFindings(stdout, findings)
		}
	case "metrics":
		diag.WriteOpenMetrics(out, rep, findings)
	default:
		if rf.AutoTune {
			if len(tuneDeltas) == 0 {
				fmt.Fprintln(out, "autotune: defaults already optimal (no deltas applied)")
			}
			for _, d := range tuneDeltas {
				fmt.Fprintf(out, "autotune: applied %s: %s -> %s (%s)\n", d.Param, d.From, d.To, d.Why)
			}
			fmt.Fprintln(out)
		}
		diag.WriteReportText(out, rep)
		fmt.Fprintln(out)
		diag.WriteFindings(out, findings)
		if *diffPath == "" {
			fmt.Fprintln(out)
			diag.WriteSuggestions(out, suggestions)
		}
	}

	if diag.MaxSeverity(findings) >= failSev {
		fmt.Fprintf(stderr, "iodoctor: findings at or above severity %q (exit 3)\n", *failOn)
		return 3
	}
	return 0
}

// loadReport reads a -format json document (or a bare report) from path.
func loadReport(path string) (*diag.Report, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var doc diag.Document
	if err := json.Unmarshal(b, &doc); err == nil && doc.Report != nil {
		return doc.Report, nil
	}
	var rep diag.Report
	if err := json.Unmarshal(b, &rep); err != nil {
		return nil, fmt.Errorf("iodoctor: %s is neither a document nor a report: %w", path, err)
	}
	return &rep, nil
}
