package experiments

import (
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"

	"repro/internal/diag"
	"repro/internal/enzo"
	"repro/internal/obs"
)

// CaseFindings pairs one sweep case with its diagnosis findings.
type CaseFindings struct {
	Case     string
	Findings []diag.Finding
}

// runCase is the one place a sweep runs a configuration. It wraps a failure
// with the case's label, tunes the configuration first under
// Options.AutoTune (the probe is never traced) and, under Options.TraceDir
// or DiagnoseSink, attaches a stack-wide tracer, writes the case's artefacts
// and hands its findings to the sink. Tracing and diagnosis only read the
// virtual clock, so the result is identical to an uninstrumented run either
// way.
//
// variant names what Case.Name() does not carry — which of two runs of one
// configuration this is, a retention depth, a fault rate — so that no two
// runs of a sweep share a label, and with it an artefact file.
func runCase(c Case, variant string, o Options) (*enzo.Result, error) {
	name := c.Name()
	if variant != "" {
		name += " " + variant
	}
	label := c.Figure + " " + name
	spec := c.RunSpec
	if o.AutoTune {
		tuned, _, _, err := diag.AutoTune(spec.Machine, spec.FS, spec.Procs, spec.Config, spec.Backend)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", label, err)
		}
		spec.Config = tuned
	}
	if o.TraceDir != "" || o.DiagnoseSink != nil {
		spec.Tracer = obs.NewTracer()
	}
	res, err := enzo.Run(spec)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", label, err)
	}
	if o.TraceDir != "" {
		if err := writeCaseArtifacts(o.TraceDir, label, spec.Tracer, res.Makespan); err != nil {
			return nil, err // an os error naming the file, which is named after the case
		}
	}
	if o.DiagnoseSink != nil {
		rep := diag.Snapshot(spec.Tracer, diag.MetaFromResult(c.Machine.Name, res, c.Config))
		o.DiagnoseSink(CaseFindings{Case: name, Findings: diag.Analyze(rep)})
	}
	return res, nil
}

// writeCaseArtifacts dumps a traced case's timeline and report files, named
// after its label with the separators flattened.
func writeCaseArtifacts(dir, label string, tr *obs.Tracer, makespan float64) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	base := filepath.Join(dir, strings.NewReplacer("/", "_", " ", "_").Replace(label))
	if err := obs.WriteFile(base+".trace.json", tr.WriteTrace); err != nil {
		return err
	}
	return obs.WriteFile(base+".report.txt", func(w io.Writer) error {
		tr.WriteReport(w, makespan)
		return nil
	})
}

// WriteFindings renders every case's findings table after a sweep's rows.
func WriteFindings(w io.Writer, all []CaseFindings) {
	for i, cf := range all {
		if i > 0 {
			fmt.Fprintln(w)
		}
		fmt.Fprintf(w, "-- diagnosis: %s --\n", cf.Case)
		diag.WriteFindings(w, cf.Findings)
	}
}
