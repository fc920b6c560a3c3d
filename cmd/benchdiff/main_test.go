package main

import (
	"bytes"
	"encoding/json"
	"os"
	"strings"
	"testing"

	"repro/internal/experiments"
)

func TestCompareRowsExactMatchPasses(t *testing.T) {
	rows := []experiments.Row{
		{Figure: "fig8", Problem: "AMR128", Backend: "mpiio", WriteSec: 12.345678901234567, Verified: true},
		{Figure: "fig8", Problem: "AMR128", Backend: "hdf4", WriteSec: 7.000000000000001, Verified: true},
	}
	if drift := CompareRows("t", rows, rows); len(drift) != 0 {
		t.Fatalf("identical rows reported drift: %v", drift)
	}
}

// TestCompareRowsCatchesSyntheticPerturbation is the gate proving itself:
// a 1-ulp-scale perturbation of one virtual time must be reported.
func TestCompareRowsCatchesSyntheticPerturbation(t *testing.T) {
	base := []experiments.Row{
		{Figure: "fig8", Problem: "AMR128", Backend: "mpiio", WriteSec: 12.345678901234567},
	}
	fresh := []experiments.Row{base[0]}
	fresh[0].WriteSec += 1e-12
	drift := CompareRows("codecs", base, fresh)
	if len(drift) != 1 {
		t.Fatalf("drift entries = %d, want 1", len(drift))
	}
	if !strings.Contains(drift[0], "WriteSec") || !strings.Contains(drift[0], "codecs row 0") {
		t.Fatalf("drift message not field-attributed:\n%s", drift[0])
	}
}

func TestCompareRowsCatchesRowCountChange(t *testing.T) {
	base := []experiments.Table1Row{{Problem: "AMR64"}, {Problem: "AMR128"}}
	fresh := base[:1]
	drift := CompareRows("table1", base, fresh)
	if len(drift) != 1 || !strings.Contains(drift[0], "row count changed") {
		t.Fatalf("row-count drift not reported: %v", drift)
	}
}

// TestFloatsSurviveJSONRoundTrip pins the property the exact-equality gate
// rests on: encoding/json emits the shortest decimal that parses back to
// the identical float64.
func TestFloatsSurviveJSONRoundTrip(t *testing.T) {
	vals := []float64{12.345678901234567, 1.0 / 3.0, 2.2250738585072014e-308, 0.1 + 0.2}
	for _, v := range vals {
		b, err := json.Marshal(v)
		if err != nil {
			t.Fatal(err)
		}
		var back float64
		if err := json.Unmarshal(b, &back); err != nil {
			t.Fatal(err)
		}
		if back != v {
			t.Fatalf("%v did not round-trip (got %v)", v, back)
		}
	}
}

// TestCheckDedupInvariant pins the -checkdedup gate's semantics: strict
// device-byte savings at depth >= 2, no vacuous pass, missing twins and
// non-savings both reported.
func TestCheckDedupInvariant(t *testing.T) {
	mk := func(cas bool, depth, reps int, deviceMB float64) experiments.DedupRow {
		return experiments.DedupRow{
			Machine: "chiba", FS: "pvfs", Problem: "AMR64",
			Depth: depth, CAStore: cas, Replicas: reps, DeviceMB: deviceMB,
		}
	}
	if p := checkDedupInvariant([]experiments.DedupRow{mk(false, 2, 0, 100), mk(true, 2, 1, 60)}); len(p) != 0 {
		t.Fatalf("valid rows flagged: %v", p)
	}
	if p := checkDedupInvariant([]experiments.DedupRow{mk(false, 2, 0, 100), mk(true, 2, 1, 100)}); len(p) != 1 {
		t.Fatalf("equal device bytes not flagged: %v", p)
	}
	if p := checkDedupInvariant([]experiments.DedupRow{mk(true, 2, 1, 60)}); len(p) == 0 {
		t.Fatal("castore row without a plain twin not flagged")
	}
	if p := checkDedupInvariant(nil); len(p) == 0 {
		t.Fatal("empty sweep passed vacuously")
	}
	// k>1 and depth 1 rows are exempt: replication legitimately multiplies
	// device bytes, and a single generation has nothing to dedup against.
	exempt := []experiments.DedupRow{
		mk(false, 2, 0, 100), mk(true, 2, 1, 60),
		mk(true, 2, 2, 120), mk(true, 1, 1, 100), mk(false, 1, 0, 100),
	}
	if p := checkDedupInvariant(exempt); len(p) != 0 {
		t.Fatalf("exempt rows flagged: %v", p)
	}
}

// TestCheckTenantsInvariant pins the -checktenants gate's semantics: fair
// never above fifo on contended fleets, a strict pvfs improvement
// somewhere, no vacuous pass, failed verification and missing policy
// groups both reported.
func TestCheckTenantsInvariant(t *testing.T) {
	mk := func(cas, fs, policy, job string, slowdown float64, contended bool) experiments.TenantRow {
		return experiments.TenantRow{
			Case: cas, Machine: "chiba", FS: fs, Policy: policy, Job: job,
			Slowdown: slowdown, Contended: contended, Verified: true,
		}
	}
	good := []experiments.TenantRow{
		mk("twins", "pvfs", "fifo", "a", 1.4, true),
		mk("twins", "pvfs", "fifo", "b", 1.2, true),
		mk("twins", "pvfs", "fair", "a", 1.3, true),
		mk("twins", "pvfs", "fair", "b", 1.25, true),
	}
	if p := checkTenantsInvariant(good); len(p) != 0 {
		t.Fatalf("valid rows flagged: %v", p)
	}
	worse := append([]experiments.TenantRow{}, good...)
	worse[2].Slowdown = 1.5 // fair worst above fifo's 1.4
	// The regression is both a bound violation and the loss of the strict
	// pvfs win, so two problems report.
	if p := checkTenantsInvariant(worse); len(p) != 2 || !strings.Contains(p[0], "above fifo") {
		t.Fatalf("fair-above-fifo not flagged: %v", p)
	}
	tie := append([]experiments.TenantRow{}, good...)
	tie[2].Slowdown = 1.4 // fair == fifo everywhere: bound holds, no strict pvfs win
	if p := checkTenantsInvariant(tie); len(p) != 1 || !strings.Contains(p[0], "strictly improves") {
		t.Fatalf("missing strict pvfs win not flagged: %v", p)
	}
	if p := checkTenantsInvariant(nil); len(p) == 0 {
		t.Fatal("empty sweep passed vacuously")
	}
	uncontended := []experiments.TenantRow{
		mk("scan", "pvfs", "fifo", "a", 1.0, false),
		mk("scan", "pvfs", "fair", "a", 1.0, false),
	}
	if p := checkTenantsInvariant(uncontended); len(p) == 0 {
		t.Fatal("sweep with only uncontended cases passed vacuously")
	}
	halfgroup := []experiments.TenantRow{mk("twins", "pvfs", "fifo", "a", 1.4, true)}
	if p := checkTenantsInvariant(halfgroup); len(p) == 0 {
		t.Fatal("contended case missing its fair group not flagged")
	}
	unverified := append([]experiments.TenantRow{}, good...)
	unverified[1].Verified = false
	if p := checkTenantsInvariant(unverified); len(p) != 1 || !strings.Contains(p[0], "verification") {
		t.Fatalf("failed verification not flagged: %v", p)
	}
	// A gpfs-only sweep bounds but cannot show the pvfs win.
	gpfsOnly := []experiments.TenantRow{
		mk("g", "gpfs", "fifo", "a", 1.4, true),
		mk("g", "gpfs", "fair", "a", 1.3, true),
	}
	if p := checkTenantsInvariant(gpfsOnly); len(p) != 1 || !strings.Contains(p[0], "pvfs") {
		t.Fatalf("missing pvfs case not flagged: %v", p)
	}
}

// TestCheckFlagsFailLoudly pins the gates' failure modes across every
// -check* flag: a missing baseline file and a present-but-empty baseline
// must both exit nonzero with a diagnostic, never pass silently.
func TestCheckFlagsFailLoudly(t *testing.T) {
	cases := []struct {
		name     string
		flag     string
		pathFlag string
		empty    string // JSON with zero matching rows
	}{
		{"dedup", "-checkdedup", "-dedup", `{"Dedup": []}`},
		{"hints", "-checkhints", "-hints", `{"Hints": []}`},
		{"tenants", "-checktenants", "-tenants", `{"Tenants": []}`},
	}
	for _, tc := range cases {
		t.Run(tc.name+"/missing-file", func(t *testing.T) {
			var stdout, stderr bytes.Buffer
			missing := t.TempDir() + "/nope.json"
			code := run([]string{tc.flag, tc.pathFlag, missing}, &stdout, &stderr)
			if code != 1 {
				t.Fatalf("exit code = %d, want 1", code)
			}
			if !strings.Contains(stderr.String(), "benchdiff -update") {
				t.Errorf("missing-file error does not tell how to regenerate: %q", stderr.String())
			}
		})
		t.Run(tc.name+"/zero-rows", func(t *testing.T) {
			var stdout, stderr bytes.Buffer
			path := t.TempDir() + "/empty.json"
			if err := os.WriteFile(path, []byte(tc.empty), 0o644); err != nil {
				t.Fatal(err)
			}
			code := run([]string{tc.flag, tc.pathFlag, path}, &stdout, &stderr)
			if code != 1 {
				t.Fatalf("exit code = %d, want 1 (vacuous pass)", code)
			}
			if !strings.Contains(stdout.String(), "INVARIANT VIOLATED") {
				t.Errorf("zero-row baseline did not report a violation: %q", stdout.String())
			}
		})
	}
}

func TestBadFlagsRejected(t *testing.T) {
	for _, args := range [][]string{
		{"-bogus"},
		{"extra-arg"},
		{"-only", "bogus"},
		{"-update", "-only", "scale,bogus"}, // one bad name refuses the whole list, before anything runs
	} {
		var stdout, stderr bytes.Buffer
		if code := run(args, &stdout, &stderr); code != 2 {
			t.Errorf("%v: exit code = %d, want 2", args, code)
		}
		if !strings.Contains(stderr.String(), "Usage of benchdiff") {
			t.Errorf("%v: no usage on stderr: %q", args, stderr.String())
		}
	}
}
