package main

import (
	"bytes"
	"strings"
	"testing"
)

// TestBadFlagsRejected: enzosim's own flags and the run-flag errors all
// reach the user as exit 2 plus usage. runflags' TestBadFlagsRejected is
// where each run-flag error's resolution is checked.
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
