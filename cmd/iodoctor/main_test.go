package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"repro/internal/diag"
	"repro/internal/enzo"
	"repro/internal/golden"
	"repro/internal/machine"
	"repro/internal/obs"
)

// rejected runs args and asserts a usage error: exit 2 plus usage.
func rejected(t *testing.T, args ...string) {
	t.Helper()
	var stdout, stderr bytes.Buffer
	if code := run(args, &stdout, &stderr); code != 2 {
		t.Fatalf("%v: exit code = %d, want 2 (stderr: %s)", args, code, stderr.String())
	}
	if !strings.Contains(stderr.String(), "Usage of iodoctor") {
		t.Fatalf("%v: no usage message on stderr:\n%s", args, stderr.String())
	}
}

// TestBadFlagsRejected: iodoctor's own flags and the run-flag errors all
// reach the user as exit 2 plus usage. runflags' TestBadFlagsRejected is
// where each run-flag error's resolution is checked.
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
		{"cbnodes with hdf4", []string{"-backend", "hdf4", "-cbnodes", "4"}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) { rejected(t, tc.args...) })
	}
}

// TestCountersBadFlagsRejected: the counter report (-format counters, once
// the separate ioreport command) rejects the same bad flags with exit 2
// plus usage. A later -format overrides the first.
func TestCountersBadFlagsRejected(t *testing.T) {
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
			rejected(t, append([]string{"-format", "counters"}, tc.args...)...)
		})
	}
}

// TestReportRejectsRunFlags: a saved document holds no run, so next to
// -report any flag that shapes or observes a run is a usage error, whether
// or not its value would resolve.
func TestReportRejectsRunFlags(t *testing.T) {
	saved := filepath.Join(t.TempDir(), "doc.json")
	var stdout, stderr bytes.Buffer
	if code := run(tinyArgs("-format", "json", "-o", saved), &stdout, &stderr); code != 0 {
		t.Fatalf("save run exit code = %d, stderr: %s", code, stderr.String())
	}
	for _, extra := range [][]string{
		{"-np", "0"},
		{"-straggler", "2"},
		{"-trace", filepath.Join(t.TempDir(), "t.json")},
		{"-format", "counters"},
	} {
		t.Run(extra[0], func(t *testing.T) {
			rejected(t, append([]string{"-report", saved}, extra...)...)
		})
	}
}

// tinyArgs is the fast end-to-end configuration the CLI tests share.
func tinyArgs(extra ...string) []string {
	return append([]string{"-problem", "tiny", "-np", "4"}, extra...)
}

func TestTinyScrubReportRuns(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if code := run(tinyArgs("-format", "counters", "-scrub"), &stdout, &stderr); code != 0 {
		t.Fatalf("exit code = %d, stderr: %s", code, stderr.String())
	}
	out := stdout.String()
	if !strings.Contains(out, "verified=true") || !strings.Contains(out, "scrub:") {
		t.Fatalf("report missing fields:\n%s", out)
	}
}

// TestJSONGolden pins the -format json document for a tiny deterministic
// run byte-for-byte. Regenerate with:
// go test ./cmd/iodoctor -run '^TestJSONGolden$' -update
func TestJSONGolden(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if code := run(tinyArgs("-format", "json"), &stdout, &stderr); code != 0 {
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

// TestDiagnoseAppendsFindings: -format counters ends in the findings table.
func TestDiagnoseAppendsFindings(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if code := run(tinyArgs("-format", "counters"), &stdout, &stderr); code != 0 {
		t.Fatalf("exit code = %d, stderr: %s", code, stderr.String())
	}
	if !strings.Contains(stdout.String(), "== findings") {
		t.Fatalf("-format counters printed no findings table:\n%s", stdout.String())
	}
}

// TestTraceFileWritten: -trace writes a loadable timeline, and a path that
// cannot be created (its directory is a regular file) exits 1 after the
// report, leaving nothing behind.
func TestTraceFileWritten(t *testing.T) {
	dir := t.TempDir()
	good := filepath.Join(dir, "t.json")
	var stdout, stderr bytes.Buffer
	if code := run(tinyArgs("-format", "counters", "-trace", good), &stdout, &stderr); code != 0 {
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
	if code := run(tinyArgs("-format", "counters", "-trace", bad), &stdout, &stderr); code != 1 {
		t.Fatalf("exit code = %d, want 1 (stderr: %s)", code, stderr.String())
	}
	if !strings.Contains(stderr.String(), "error:") || !strings.Contains(stdout.String(), "verified=true") {
		t.Fatalf("want the report on stdout and an error on stderr, got\n%s\n%s", stdout.String(), stderr.String())
	}
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

	// The counter report of the same run carries the diff's findings too.
	stdout.Reset()
	stderr.Reset()
	if code := run(tinyArgs("-format", "counters", "-diff", saved, "-fail-on", "warning"), &stdout, &stderr); code != 0 {
		t.Fatalf("counters self-diff exit code = %d, stderr: %s\n%s", code, stderr.String(), stdout.String())
	}
	if out := stdout.String(); !strings.Contains(out, "verified=true") || !strings.Contains(out, "diff-makespan") {
		t.Fatalf("counters self-diff missing the header or the diff-makespan finding:\n%s", out)
	}
}

// TestTraceIsZeroPerturbation: a traced run must not move virtual time —
// every request passes through the tracer's tap in its own mode, read-ahead
// included. For each -async composition, the Result of the traced run is
// DeepEqual to an untraced enzo.Run of the same spec (the one iodoctor's
// flags describe), and iodoctor prints the untraced run's phase times.
func TestTraceIsZeroPerturbation(t *testing.T) {
	for _, extra := range [][]string{
		{"-async"},
		{"-async", "-codec", "lzss"},
		{"-async", "-backend", "hdf5"},
	} {
		cfg, err := enzo.ProblemByName("tiny")
		if err != nil {
			t.Fatal(err)
		}
		cfg.AsyncIO = true
		backend := enzo.BackendMPIIO
		switch strings.Join(extra, " ") {
		case "-async -codec lzss":
			cfg.Codec = "lzss"
		case "-async -backend hdf5":
			backend = enzo.BackendHDF5
		}
		spec := enzo.RunSpec{Machine: machine.ByName("chiba"), FS: "pvfs", Procs: 4, Config: cfg, Backend: backend}
		plain, err := enzo.Run(spec)
		if err != nil {
			t.Fatalf("%v: %v", extra, err)
		}
		spec.Tracer = obs.NewTracer()
		traced, err := enzo.Run(spec)
		if err != nil {
			t.Fatalf("%v traced: %v", extra, err)
		}
		if !reflect.DeepEqual(plain, traced) {
			t.Errorf("%v: tracing moved the run:\nwithout: %+v\nwith:    %+v", extra, plain, traced)
		}
		if len(spec.Tracer.Calls()) == 0 {
			t.Errorf("%v: the traced run logged no pfs call", extra)
		}

		var stdout, stderr bytes.Buffer
		if code := run(tinyArgs(append(extra, "-format", "counters")...), &stdout, &stderr); code != 0 {
			t.Fatalf("%v: exit code = %d, stderr: %s", extra, code, stderr.String())
		}
		phases := fmt.Sprintf("phases: read=%.3fs write=%.3fs restart=%.3fs\n", plain.ReadTime(), plain.WriteTime(), plain.RestartTime())
		if !strings.Contains(stdout.String(), phases) {
			t.Errorf("%v: iodoctor does not print the untraced run's %q:\n%s", extra, phases, stdout.String())
		}
	}
}

// traceReport runs iodoctor -format counters on Tiny/np=4, chiba/pvfs with
// the extra flags and returns the I/O characterization and the
// access-pattern table it prints between the counter report and the
// findings.
func traceReport(t *testing.T, extra ...string) string {
	t.Helper()
	args := tinyArgs(append([]string{"-machine", "chiba", "-fs", "pvfs", "-format", "counters"}, extra...)...)
	var stdout, stderr bytes.Buffer
	if code := run(args, &stdout, &stderr); code != 0 {
		t.Fatalf("%v: exit code = %d, stderr: %s", args, code, stderr.String())
	}
	out := stdout.String()
	i := strings.Index(out, "\nI/O characterization")
	k := strings.Index(out, "\naccess pattern classification:\n")
	if i < 0 || k < i {
		t.Fatalf("%v: no characterization and pattern table in:\n%s", args, out)
	}
	end := strings.Index(out[k+1:], "\n\n")
	if end < 0 {
		t.Fatalf("%v: nothing follows the pattern table in:\n%s", args, out)
	}
	return out[i+1 : k+1+end+1]
}

// TestTraceReportGolden pins the characterization -format counters prints —
// per-op totals and percentiles, exposed vs hidden time per file,
// compression ratios, the size histogram — and the pattern table, byte for
// byte over blocking, behind, compressed, HDF5, placed-create and
// faulted/re-dumped traffic. Regenerate with:
// go test ./cmd/iodoctor -run '^TestTraceReportGolden$' -update
func TestTraceReportGolden(t *testing.T) {
	var got bytes.Buffer
	for _, extra := range [][]string{
		nil,
		{"-async"},
		{"-async", "-codec", "lzss"},
		{"-async", "-backend", "hdf5"},
		{"-castore", "-replicas", "2"},
		{"-scrub", "-corrupt", "3", "-straggler", "2"},
	} {
		got.WriteString(strings.Join(append([]string{"== -trace"}, extra...), " ") + "\n")
		got.WriteString(traceReport(t, extra...))
	}

	golden.Check(t, "testdata/trace_tiny.txt", got.Bytes())
}

// TestTraceReportsCompression follows the codec channel end to end: enzo
// reports each compressed transfer to the pfs.CodecReporter it finds in the
// stack, which is the tracer's tap, and -format counters prints its
// per-file tallies. The section names the initial-conditions and the dump
// file, every written ratio exceeds 1, and without -codec there is no
// section.
func TestTraceReportsCompression(t *testing.T) {
	const section = "compression (logical vs physical bytes per file):\n"
	for _, backend := range []string{"mpiio", "hdf5"} {
		out := traceReport(t, "-backend", backend, "-codec", "lzss")
		i := strings.Index(out, section)
		if i < 0 {
			t.Fatalf("%s: -codec lzss prints no compression section:\n%s", backend, out)
		}
		files := map[string]bool{}
		for _, line := range strings.Split(out[i+len(section):], "\n") {
			if !strings.HasPrefix(line, "  ") {
				break
			}
			var file string
			var logical, physical int64
			var ratio float64
			if _, err := fmt.Sscanf(line, " %s write %d -> %d (%fx)", &file, &logical, &physical, &ratio); err != nil {
				t.Fatalf("%s: unparsable compression line %q: %v", backend, line, err)
			}
			if physical > 0 && ratio <= 1 {
				t.Errorf("%s: %s written at ratio %.2f, want > 1", backend, file, ratio)
			}
			files[strings.SplitN(file, ".", 2)[0]] = true
		}
		if !files["ic"] || !files["dump00"] {
			t.Errorf("%s: compression section names %v, want ic.* and dump00.*", backend, files)
		}
		if out := traceReport(t, "-backend", backend); strings.Contains(out, section) {
			t.Errorf("%s: compression section printed without -codec", backend)
		}
	}
}
