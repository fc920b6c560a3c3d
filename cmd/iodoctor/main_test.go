package main

import (
	"bytes"
	"encoding/json"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/diag"
)

func TestBadFlagsRejected(t *testing.T) {
	cases := []struct {
		name string
		args []string
	}{
		{"unknown flag", []string{"-bogus"}},
		{"bad machine", []string{"-machine", "bluegene"}},
		{"bad problem", []string{"-problem", "AMR1024"}},
		{"bad backend", []string{"-backend", "netcdf"}},
		{"bad codec", []string{"-codec", "zip"}},
		{"bad format", []string{"-format", "xml"}},
		{"bad fail-on", []string{"-fail-on", "info"}},
		{"zero ranks", []string{"-np", "0"}},
		{"sub-unity straggler", []string{"-straggler", "0.5"}},
		{"negative corrupt", []string{"-corrupt", "-1"}},
		{"straggler on unstriped fs", []string{"-fs", "xfs", "-straggler", "2"}},
		{"negative cbnodes", []string{"-cbnodes", "-3"}},
		{"cbnodes with report", []string{"-cbnodes", "4", "-report", "report.json"}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var stdout, stderr bytes.Buffer
			if code := run(tc.args, &stdout, &stderr); code != 2 {
				t.Fatalf("exit code = %d, want 2 (stderr: %s)", code, stderr.String())
			}
			if !strings.Contains(stderr.String(), "Usage of iodoctor") {
				t.Fatalf("no usage message on stderr:\n%s", stderr.String())
			}
		})
	}
}

// tinyArgs is the fast end-to-end configuration the CLI tests share.
func tinyArgs(extra ...string) []string {
	return append([]string{"-problem", "tiny", "-np", "4"}, extra...)
}

func TestByteIdenticalRuns(t *testing.T) {
	out := func() []byte {
		var stdout, stderr bytes.Buffer
		if code := run(tinyArgs(), &stdout, &stderr); code != 0 {
			t.Fatalf("exit code = %d, stderr: %s", code, stderr.String())
		}
		return stdout.Bytes()
	}
	if !bytes.Equal(out(), out()) {
		t.Error("repeated identical runs produced different output")
	}
}

func TestJSONDocumentAndFailOn(t *testing.T) {
	// cb_nodes=2 against 8 PVFS IODs is a 4x mismatch: critical.
	var stdout, stderr bytes.Buffer
	code := run(tinyArgs("-cbnodes", "2", "-format", "json", "-fail-on", "critical"), &stdout, &stderr)
	if code != 3 {
		t.Fatalf("exit code = %d, want 3 (stderr: %s)", code, stderr.String())
	}
	var doc diag.Document
	if err := json.Unmarshal(stdout.Bytes(), &doc); err != nil {
		t.Fatalf("output is not a diagnosis document: %v", err)
	}
	var mismatch *diag.Finding
	for i, f := range doc.Findings {
		if f.Detector == "cb-mismatch" {
			mismatch = &doc.Findings[i]
		}
	}
	if mismatch == nil || mismatch.Severity != diag.SevCritical {
		t.Fatalf("no critical cb-mismatch finding: %+v", doc.Findings)
	}
	var cb *diag.HintsDelta
	for i, d := range doc.Suggestions {
		if d.Param == "cb_nodes" {
			cb = &doc.Suggestions[i]
		}
	}
	if cb == nil || cb.CBNodes == nil || *cb.CBNodes != 8 {
		t.Fatalf("no cb_nodes=8 suggestion: %+v", doc.Suggestions)
	}
}

func TestMetricsFormat(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if code := run(tinyArgs("-format", "metrics"), &stdout, &stderr); code != 0 {
		t.Fatalf("exit code = %d, stderr: %s", code, stderr.String())
	}
	out := stdout.String()
	if !strings.HasSuffix(out, "# EOF\n") {
		t.Fatalf("metrics output does not end with # EOF:\n...%s", out[max(0, len(out)-200):])
	}
	if !strings.Contains(out, "# TYPE") || !strings.Contains(out, "iodoctor_") {
		t.Fatalf("metrics output missing exposition structure:\n%s", out[:min(len(out), 400)])
	}
}

func TestReportAndDiffRoundTrip(t *testing.T) {
	dir := t.TempDir()
	saved := filepath.Join(dir, "doc.json")

	var stdout, stderr bytes.Buffer
	if code := run(tinyArgs("-format", "json", "-o", saved), &stdout, &stderr); code != 0 {
		t.Fatalf("save run exit code = %d, stderr: %s", code, stderr.String())
	}
	// With -o and -format json the findings still go to stdout.
	if !strings.Contains(stdout.String(), "== findings") && !strings.Contains(stdout.String(), "no findings") {
		t.Fatalf("-o json run printed no findings summary:\n%s", stdout.String())
	}

	// Reload the saved document instead of simulating.
	stdout.Reset()
	stderr.Reset()
	if code := run([]string{"-report", saved}, &stdout, &stderr); code != 0 {
		t.Fatalf("-report exit code = %d, stderr: %s", code, stderr.String())
	}
	if !strings.Contains(stdout.String(), "== run ==") {
		t.Fatalf("-report did not render the report:\n%s", stdout.String())
	}

	// Diffing a report against itself: no regressions, only the makespan
	// info line — must stay exit 0 even with -fail-on warning.
	stdout.Reset()
	stderr.Reset()
	if code := run([]string{"-report", saved, "-diff", saved, "-fail-on", "warning"}, &stdout, &stderr); code != 0 {
		t.Fatalf("self-diff exit code = %d, stderr: %s\n%s", code, stderr.String(), stdout.String())
	}
	if !strings.Contains(stdout.String(), "makespan") {
		t.Fatalf("self-diff missing the makespan line:\n%s", stdout.String())
	}
}
