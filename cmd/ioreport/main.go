// Command ioreport runs one ENZO configuration with the stack-wide
// observability layer attached and emits the run's I/O characterization:
// a Darshan-style per-rank counter report attributing virtual time across
// the stack (application, HDF, MPI-IO with its two-phase exchange/io
// split, MPI, file system), and optionally a Chrome trace-event JSON
// timeline loadable in Perfetto (ui.perfetto.dev) or chrome://tracing.
//
// Usage:
//
//	ioreport [-machine chiba] [-fs pvfs] [-backend mpiio] [-problem AMR64]
//	         [-np 8] [-membudget MIB] [-quick] [-codec none|rle|delta|lzss] [-async] [-scrub]
//	         [-format text|json] [-diagnose]
//	         [-trace timeline.json] [-o report.txt]
//
// -format json emits the machine-readable diagnosis document (the same
// schema iodoctor writes), suitable for iodoctor -report/-diff. -diagnose
// appends the ranked findings table to the text report.
//
// Tracing is zero-perturbation: the virtual timings of a traced run are
// bit-identical to the same run without instrumentation.
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
	fl := flag.NewFlagSet("ioreport", flag.ContinueOnError)
	fl.SetOutput(stderr)
	rf := runflags.Register(fl, runflags.Defaults{Machine: "chiba", FS: "pvfs", Problem: "AMR64", Quick: true})
	format := fl.String("format", "text", "output format: text, or json (the iodoctor diagnosis document)")
	diagnose := fl.Bool("diagnose", false, "append the ranked diagnosis findings to the text report")
	tracePath := fl.String("trace", "", "write a Perfetto-loadable trace-event JSON timeline here")
	outPath := fl.String("o", "", "write the counter report here (default stdout)")
	if err := fl.Parse(args); err != nil {
		return 2
	}

	fail := func(err error) int {
		fmt.Fprintln(stderr, "ioreport:", err)
		fl.Usage()
		return 2
	}

	switch *format {
	case "text", "json":
	default:
		return fail(fmt.Errorf("unknown -format %q (want text or json)", *format))
	}
	spec, err := rf.Resolve()
	if err != nil {
		return fail(err)
	}
	tuneDeltas, _, err := rf.Tune(&spec)
	if err != nil {
		fmt.Fprintln(stderr, "error:", err)
		return 1
	}
	tr := obs.NewTracer()
	spec.Tracer = tr
	res, err := enzo.Run(spec)
	if err != nil {
		fmt.Fprintln(stderr, "error:", err)
		return 1
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

	if *format == "json" {
		rep := diag.Snapshot(tr, diag.MetaFromResult(rf.Machine, res, spec.Config))
		doc := diag.Document{
			Report:      rep,
			Findings:    diag.Analyze(rep),
			Suggestions: diag.Suggest(rep),
		}
		enc := json.NewEncoder(out)
		enc.SetIndent("", "  ")
		if err := enc.Encode(doc); err != nil {
			fmt.Fprintln(stderr, "error:", err)
			return 1
		}
		return writeTimeline(tr, *tracePath, stderr)
	}
	fmt.Fprintf(out, "%s %s/%s backend=%s np=%d verified=%v\n",
		res.Problem, rf.Machine, rf.FS, res.Backend, res.Procs, res.Verified)
	if rf.AutoTune {
		if len(tuneDeltas) == 0 {
			fmt.Fprintln(out, "autotune: defaults already optimal (no deltas)")
		}
		for _, d := range tuneDeltas {
			fmt.Fprintf(out, "autotune: %s: %s -> %s (%s)\n", d.Param, d.From, d.To, d.Why)
		}
	}
	fmt.Fprintf(out, "phases: read=%.3fs write=%.3fs restart=%.3fs\n",
		res.ReadTime(), res.WriteTime(), res.RestartTime())
	if rf.Scrub {
		fmt.Fprintf(out, "scrub: %.3fs, failures=%d redumps=%d fallbacks=%d\n",
			res.Phase("scrub"), res.ScrubFailures, res.Redumps, res.RestartFallbacks)
	}
	fmt.Fprintln(out)
	tr.WriteReport(out, res.Makespan)
	if *diagnose {
		rep := diag.Snapshot(tr, diag.MetaFromResult(rf.Machine, res, spec.Config))
		fmt.Fprintln(out)
		diag.WriteFindings(out, diag.Analyze(rep))
	}

	return writeTimeline(tr, *tracePath, stderr)
}

// writeTimeline writes the Perfetto trace when requested.
func writeTimeline(tr *obs.Tracer, path string, stderr io.Writer) int {
	if path == "" {
		return 0
	}
	if err := obs.WriteFile(path, tr.WriteTrace); err != nil {
		fmt.Fprintln(stderr, "error:", err)
		return 1
	}
	fmt.Fprintf(stderr, "timeline written to %s (load in ui.perfetto.dev)\n", path)
	return 0
}
