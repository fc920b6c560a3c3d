package main

import (
	"bytes"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

var updateGolden = flag.Bool("update-golden", false, "rewrite testdata golden files")

func TestBadFlagsRejected(t *testing.T) {
	cases := []struct {
		name string
		args []string
	}{
		{"unknown flag", []string{"-bogus"}},
		{"bad machine", []string{"-machine", "bluegene"}},
		{"zero ranks", []string{"-np", "0"}},
		{"bad codec", []string{"-codec", "zip"}},
		{"bad backend", []string{"-backend", "netcdf"}},
		{"bad problem", []string{"-problem", "AMR1024"}},
		{"negative generations", []string{"-generations", "-1"}},
		{"generations without scrub", []string{"-generations", "2"}},
		{"straggler below one", []string{"-straggler", "0.5"}},
		{"straggler on plain fs", []string{"-fs", "xfs", "-straggler", "10"}},
		{"negative corrupt", []string{"-corrupt", "-3"}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var stdout, stderr bytes.Buffer
			if code := run(tc.args, &stdout, &stderr); code != 2 {
				t.Fatalf("exit code = %d, want 2 (stderr: %s)", code, stderr.String())
			}
			if !strings.Contains(stderr.String(), "Usage of enzosim") {
				t.Fatalf("no usage message on stderr:\n%s", stderr.String())
			}
		})
	}
}

// TestAMR512NeedsMemBudget: the footprint guard must stop an AMR512 run
// before it allocates anything, pointing at the -membudget escape hatch.
func TestAMR512NeedsMemBudget(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if code := run([]string{"-problem", "AMR512"}, &stdout, &stderr); code != 1 {
		t.Fatalf("exit code = %d, want 1 (stderr: %s)", code, stderr.String())
	}
	if !strings.Contains(stderr.String(), "-membudget") {
		t.Fatalf("guard error does not mention -membudget:\n%s", stderr.String())
	}
}

func TestTinyRunSucceeds(t *testing.T) {
	var stdout, stderr bytes.Buffer
	code := run([]string{"-problem", "tiny", "-np", "4", "-scrub"}, &stdout, &stderr)
	if code != 0 {
		t.Fatalf("exit code = %d, stderr: %s", code, stderr.String())
	}
	for _, want := range []string{"verified     true", "scrub        failures 0", "\nbytes written 842267 (0.8 MB)\n"} {
		if !strings.Contains(stdout.String(), want) {
			t.Fatalf("stdout missing %q:\n%s", want, stdout.String())
		}
	}
}

func TestTinyFaultRunRecovers(t *testing.T) {
	var stdout, stderr bytes.Buffer
	code := run([]string{"-problem", "tiny", "-np", "4", "-fs", "pvfs", "-machine", "chiba",
		"-scrub", "-corrupt", "3", "-straggler", "2"}, &stdout, &stderr)
	if code != 0 {
		t.Fatalf("exit code = %d, stderr: %s", code, stderr.String())
	}
	if !strings.Contains(stdout.String(), "verified     true") {
		t.Fatalf("faulted run did not verify:\n%s", stdout.String())
	}
}

// TestTraceIsZeroPerturbation: -trace layers the iotrace recorder into the
// file-system stack, and a recorder must not move virtual time — every
// request passes through it in its own mode, read-ahead included. The phase
// lines of an -async run are byte-identical with and without it.
func TestTraceIsZeroPerturbation(t *testing.T) {
	phases := func(args ...string) string {
		t.Helper()
		var stdout, stderr bytes.Buffer
		args = append([]string{"-problem", "tiny", "-np", "4", "-fs", "pvfs", "-machine", "chiba"}, args...)
		if code := run(args, &stdout, &stderr); code != 0 {
			t.Fatalf("%v: exit code = %d, stderr: %s", args, code, stderr.String())
		}
		var out []string
		for _, line := range strings.Split(stdout.String(), "\n") {
			if strings.HasPrefix(line, "  ") && strings.HasSuffix(line, " s") {
				out = append(out, line)
			}
		}
		if len(out) < 4 {
			t.Fatalf("%v: no phase lines in:\n%s", args, stdout.String())
		}
		return strings.Join(out, "\n")
	}
	for _, extra := range [][]string{
		{"-async"},
		{"-async", "-codec", "lzss"},
		{"-async", "-backend", "hdf5"},
	} {
		plain := phases(extra...)
		traced := phases(append(extra, "-trace")...)
		if plain != traced {
			t.Errorf("%v: -trace moved virtual time:\nwithout:\n%s\nwith:\n%s", extra, plain, traced)
		}
	}
}

// traceReport runs enzosim -trace on Tiny/np=4, chiba/pvfs with the extra
// flags and returns everything printed after the run summary: the I/O
// characterization and the access-pattern table.
func traceReport(t *testing.T, extra ...string) string {
	t.Helper()
	args := append([]string{"-problem", "tiny", "-np", "4", "-machine", "chiba", "-fs", "pvfs", "-trace"}, extra...)
	var stdout, stderr bytes.Buffer
	if code := run(args, &stdout, &stderr); code != 0 {
		t.Fatalf("%v: exit code = %d, stderr: %s", args, code, stderr.String())
	}
	out := stdout.String()
	i := strings.Index(out, "\nI/O characterization")
	if i < 0 {
		t.Fatalf("%v: no characterization in:\n%s", args, out)
	}
	return out[i+1:]
}

// TestTraceReportGolden pins what -trace prints — the characterization
// (per-op totals and percentiles, exposed vs hidden time per file,
// compression ratios, the size histogram) and the pattern table — byte for
// byte over blocking, behind, compressed, HDF5, placed-create and
// faulted/re-dumped traffic. Regenerate with:
// go test ./cmd/enzosim -run TraceReportGolden -update-golden
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

	golden := filepath.Join("testdata", "trace_tiny.txt")
	if *updateGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, got.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("missing golden file (regenerate with -update-golden): %v", err)
	}
	if !bytes.Equal(got.Bytes(), want) {
		t.Errorf("-trace output drifted from %s; if intentional, regenerate with -update-golden\ngot:\n%s", golden, got.String())
	}
}

// TestTraceReportsCompression follows the codec channel end to end: enzo
// reports each compressed transfer to the pfs.CodecReporter it finds in the
// stack, which is the iotrace recorder -trace put there, which prints it.
// The section names the initial-conditions and the dump file, every written
// ratio exceeds 1, and without -codec there is no section.
func TestTraceReportsCompression(t *testing.T) {
	const section = "compression (logical vs physical bytes per file):\n"
	for _, backend := range []string{"mpiio", "hdf5"} {
		out := traceReport(t, "-backend", backend, "-codec", "lzss")
		i := strings.Index(out, section)
		if i < 0 {
			t.Fatalf("%s: -trace -codec lzss prints no compression section:\n%s", backend, out)
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
