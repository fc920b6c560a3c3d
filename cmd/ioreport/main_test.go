package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/diag"
	"repro/internal/golden"
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
		{"zero ranks", []string{"-np", "0"}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var stdout, stderr bytes.Buffer
			if code := run(tc.args, &stdout, &stderr); code != 2 {
				t.Fatalf("exit code = %d, want 2 (stderr: %s)", code, stderr.String())
			}
			if !strings.Contains(stderr.String(), "Usage of ioreport") {
				t.Fatalf("no usage message on stderr:\n%s", stderr.String())
			}
		})
	}
}

func TestTinyScrubReportRuns(t *testing.T) {
	var stdout, stderr bytes.Buffer
	code := run([]string{"-problem", "tiny", "-np", "4", "-scrub"}, &stdout, &stderr)
	if code != 0 {
		t.Fatalf("exit code = %d, stderr: %s", code, stderr.String())
	}
	out := stdout.String()
	if !strings.Contains(out, "verified=true") || !strings.Contains(out, "scrub:") {
		t.Fatalf("report missing fields:\n%s", out)
	}
}

// TestJSONGolden pins the -format json document for a tiny deterministic
// run byte-for-byte. Regenerate with:
// go test ./cmd/ioreport -run '^TestJSONGolden$' -update
func TestJSONGolden(t *testing.T) {
	args := []string{"-problem", "tiny", "-np", "4", "-format", "json"}
	var stdout, stderr bytes.Buffer
	if code := run(args, &stdout, &stderr); code != 0 {
		t.Fatalf("exit code = %d, stderr: %s", code, stderr.String())
	}

	var doc diag.Document
	if err := json.Unmarshal(stdout.Bytes(), &doc); err != nil {
		t.Fatalf("output is not a diagnosis document: %v", err)
	}
	if doc.Report == nil || doc.Report.Meta.Problem != "Tiny" || doc.Report.Meta.Procs != 4 {
		t.Fatalf("document meta wrong: %+v", doc.Report)
	}

	golden.Check(t, "testdata/tiny_np4.json", stdout.Bytes())
}

// TestDiagnoseAppendsFindings checks the -diagnose text-mode tail.
func TestDiagnoseAppendsFindings(t *testing.T) {
	var stdout, stderr bytes.Buffer
	code := run([]string{"-problem", "tiny", "-np", "4", "-diagnose"}, &stdout, &stderr)
	if code != 0 {
		t.Fatalf("exit code = %d, stderr: %s", code, stderr.String())
	}
	if !strings.Contains(stdout.String(), "== findings") {
		t.Fatalf("-diagnose did not append a findings table:\n%s", stdout.String())
	}
}

// TestTraceFileWritten: -trace writes a loadable timeline, and a path that
// cannot be created (its directory is a regular file) exits 1 after the
// report, leaving nothing behind.
func TestTraceFileWritten(t *testing.T) {
	dir := t.TempDir()
	good := filepath.Join(dir, "t.json")
	var stdout, stderr bytes.Buffer
	if code := run([]string{"-problem", "tiny", "-np", "4", "-trace", good}, &stdout, &stderr); code != 0 {
		t.Fatalf("exit code = %d, stderr: %s", code, stderr.String())
	}
	raw, err := os.ReadFile(good)
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []json.RawMessage `json:"traceEvents"`
	}
	if err := json.Unmarshal(raw, &doc); err != nil || len(doc.TraceEvents) == 0 {
		t.Fatalf("timeline does not parse (%v) or is empty (%d events)", err, len(doc.TraceEvents))
	}

	stdout.Reset()
	stderr.Reset()
	bad := filepath.Join(good, "x")
	if code := run([]string{"-problem", "tiny", "-np", "4", "-trace", bad}, &stdout, &stderr); code != 1 {
		t.Fatalf("exit code = %d, want 1 (stderr: %s)", code, stderr.String())
	}
	if !strings.Contains(stderr.String(), "error:") || !strings.Contains(stdout.String(), "verified=true") {
		t.Fatalf("want the report on stdout and an error on stderr, got\n%s\n%s", stdout.String(), stderr.String())
	}
}
