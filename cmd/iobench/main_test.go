package main

import (
	"bytes"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"

	"repro/internal/experiments"
	"repro/internal/golden"
)

// scaleRowWallClock matches one row of the scale table; its group is the
// events/sec cell with its padding — the only wall-clock number iobench
// prints.
var scaleRowWallClock = regexp.MustCompile(`(?m)^\S+ +cluster1024 +\S+ +\S+ +\d+ +[0-9.]+ +\d+ +(\d+ +)(?:true|false)$`)

// maskWallClock writes "-" over every events/sec cell of out, in place,
// keeping the column's width, and returns out.
func maskWallClock(out []byte) []byte {
	for _, m := range scaleRowWallClock.FindAllSubmatchIndex(out, -1) {
		copy(out[m[2]:m[3]], "-"+strings.Repeat(" ", m[3]-m[2]-1))
	}
	return out
}

// TestQuickAllGolden pins the stdout of `iobench -exp all -quick` — every
// registered sweep's title and table, in run order — byte for byte, with
// the scale table's events/sec column masked in the file too. Everything
// else printed is deterministic virtual time. Regenerate with:
// go test ./cmd/iobench -run '^TestQuickAllGolden$' -update
func TestQuickAllGolden(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if code := run([]string{"-exp", "all", "-quick"}, &stdout, &stderr); code != 0 {
		t.Fatalf("exit code = %d, stderr: %s", code, stderr.String())
	}
	golden.Check(t, "testdata/quick_all.txt", maskWallClock(stdout.Bytes()))
}

// TestUsageListsEveryRegisteredSweep pins the -exp help text and the
// unknown-experiment error to the experiments registry: registering a new
// sweep without it appearing in the usage (or vice versa) fails here
// instead of drifting silently.
func TestUsageListsEveryRegisteredSweep(t *testing.T) {
	names := append(experiments.SweepNames(), "all")
	usage := expUsage()
	for _, name := range names {
		if !strings.Contains(usage, name) {
			t.Errorf("-exp usage %q does not mention registered sweep %q", usage, name)
		}
	}
	if len(validExps()) != len(names) {
		t.Fatalf("validExps() = %v, want registry + all = %v", validExps(), names)
	}

	// The rejection path must list the registered names too.
	var stdout, stderr bytes.Buffer
	if code := run([]string{"-exp", "nonesuch"}, &stdout, &stderr); code != 2 {
		t.Fatalf("exit code = %d, want 2", code)
	}
	for _, name := range names {
		if !strings.Contains(stderr.String(), name) {
			t.Errorf("unknown-experiment error does not list %q:\n%s", name, stderr.String())
		}
	}
}

// TestRegistryTitlesComplete: every registered sweep must carry a section
// heading — run() prints SweepTitle(name) verbatim.
func TestRegistryTitlesComplete(t *testing.T) {
	for _, s := range experiments.Registry() {
		if s.Title == "" {
			t.Errorf("registered sweep %q has no title", s.Name)
		}
		if experiments.SweepTitle(s.Name) != s.Title {
			t.Errorf("SweepTitle(%q) mismatch", s.Name)
		}
	}
	if experiments.SweepTitle("nonesuch") != "" {
		t.Error("SweepTitle of unknown sweep should be empty")
	}
}

func TestBadFlagsRejected(t *testing.T) {
	// Profile outputs pointing into a directory that does not exist must
	// fail fast with exit 2 before any simulation runs (no usage text —
	// the flag itself is fine, its value is not).
	noDir := filepath.Join(t.TempDir(), "no-such-dir", "out.pb")
	// A command line rejected for another reason must not have created the
	// profile file it names: validation comes before side effects.
	profile := filepath.Join(t.TempDir(), "profile.out")
	cases := []struct {
		name      string
		args      []string
		wantUsage bool
	}{
		{"unknown flag", []string{"-bogus"}, true},
		{"bad experiment", []string{"-exp", "fig99"}, true},
		{"bad codec", []string{"-codec", "zip"}, true},
		{"bad cpuprofile path", []string{"-exp", "table1", "-quick", "-cpuprofile", noDir}, false},
		{"bad memprofile path", []string{"-exp", "table1", "-quick", "-memprofile", noDir}, false},
		{"bad exectrace path", []string{"-exp", "table1", "-quick", "-exectrace", noDir}, false},
		{"bad experiment leaves no cpuprofile", []string{"-exp", "bogus", "-cpuprofile", profile}, true},
		{"bad experiment leaves no memprofile", []string{"-exp", "bogus", "-memprofile", profile}, true},
		{"bad experiment leaves no exectrace", []string{"-exp", "bogus", "-exectrace", profile}, true},
		{"bad codec leaves no cpuprofile", []string{"-codec", "zip", "-cpuprofile", profile}, true},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var stdout, stderr bytes.Buffer
			if code := run(tc.args, &stdout, &stderr); code != 2 {
				t.Fatalf("exit code = %d, want 2 (stderr: %s)", code, stderr.String())
			}
			if _, err := os.Stat(profile); err == nil {
				t.Fatalf("rejected command line left %s behind", profile)
			}
			if tc.wantUsage && !strings.Contains(stderr.String(), "Usage of iobench") {
				t.Fatalf("no usage message on stderr:\n%s", stderr.String())
			}
			if !tc.wantUsage && stderr.Len() == 0 {
				t.Fatal("no error message on stderr")
			}
		})
	}
}

// TestProfileFlagsWriteFiles runs the smallest sweep with all three
// profiling outputs enabled and asserts each file lands non-empty.
func TestProfileFlagsWriteFiles(t *testing.T) {
	dir := t.TempDir()
	cpu := filepath.Join(dir, "cpu.pb")
	mem := filepath.Join(dir, "mem.pb")
	tr := filepath.Join(dir, "trace.out")
	var stdout, stderr bytes.Buffer
	code := run([]string{"-exp", "table1", "-quick",
		"-cpuprofile", cpu, "-memprofile", mem, "-exectrace", tr}, &stdout, &stderr)
	if code != 0 {
		t.Fatalf("exit code = %d, stderr: %s", code, stderr.String())
	}
	for _, path := range []string{cpu, mem, tr} {
		fi, err := os.Stat(path)
		if err != nil {
			t.Fatalf("profile output missing: %v", err)
		}
		if fi.Size() == 0 {
			t.Fatalf("profile output %s is empty", path)
		}
	}
}

func TestTable1Runs(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if code := run([]string{"-exp", "table1", "-quick"}, &stdout, &stderr); code != 0 {
		t.Fatalf("exit code = %d, stderr: %s", code, stderr.String())
	}
	if !strings.Contains(stdout.String(), "Table 1") {
		t.Fatalf("missing Table 1 output:\n%s", stdout.String())
	}
}
