package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"slices"
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

// TestCheckDedupInvariant pins the dedup gate's semantics (-check): strict
// device-byte savings at depth >= 2, no vacuous pass, missing twins and
// non-savings both reported.
func TestCheckDedupInvariant(t *testing.T) {
	mk := func(cas bool, depth, reps int, deviceMB float64) experiments.DedupRow {
		return experiments.DedupRow{
			Machine: "chiba", FS: "pvfs", Problem: "AMR64",
			Depth: depth, CAStore: cas, Replicas: reps, DeviceMB: deviceMB,
		}
	}
	if p := experiments.CheckDedupInvariant([]experiments.DedupRow{mk(false, 2, 0, 100), mk(true, 2, 1, 60)}); len(p) != 0 {
		t.Fatalf("valid rows flagged: %v", p)
	}
	if p := experiments.CheckDedupInvariant([]experiments.DedupRow{mk(false, 2, 0, 100), mk(true, 2, 1, 100)}); len(p) != 1 {
		t.Fatalf("equal device bytes not flagged: %v", p)
	}
	if p := experiments.CheckDedupInvariant([]experiments.DedupRow{mk(true, 2, 1, 60)}); len(p) == 0 {
		t.Fatal("castore row without a plain twin not flagged")
	}
	if p := experiments.CheckDedupInvariant(nil); len(p) == 0 {
		t.Fatal("empty sweep passed vacuously")
	}
	// k>1 and depth 1 rows are exempt: replication legitimately multiplies
	// device bytes, and a single generation has nothing to dedup against.
	exempt := []experiments.DedupRow{
		mk(false, 2, 0, 100), mk(true, 2, 1, 60),
		mk(true, 2, 2, 120), mk(true, 1, 1, 100), mk(false, 1, 0, 100),
	}
	if p := experiments.CheckDedupInvariant(exempt); len(p) != 0 {
		t.Fatalf("exempt rows flagged: %v", p)
	}
}

// TestCheckTenantsInvariant pins the tenants gate's semantics (-check): fair
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
	if p := experiments.CheckTenantsInvariant(good); len(p) != 0 {
		t.Fatalf("valid rows flagged: %v", p)
	}
	worse := append([]experiments.TenantRow{}, good...)
	worse[2].Slowdown = 1.5 // fair worst above fifo's 1.4
	// The regression is both a bound violation and the loss of the strict
	// pvfs win, so two problems report.
	if p := experiments.CheckTenantsInvariant(worse); len(p) != 2 || !strings.Contains(p[0], "above fifo") {
		t.Fatalf("fair-above-fifo not flagged: %v", p)
	}
	tie := append([]experiments.TenantRow{}, good...)
	tie[2].Slowdown = 1.4 // fair == fifo everywhere: bound holds, no strict pvfs win
	if p := experiments.CheckTenantsInvariant(tie); len(p) != 1 || !strings.Contains(p[0], "strictly improves") {
		t.Fatalf("missing strict pvfs win not flagged: %v", p)
	}
	if p := experiments.CheckTenantsInvariant(nil); len(p) == 0 {
		t.Fatal("empty sweep passed vacuously")
	}
	uncontended := []experiments.TenantRow{
		mk("scan", "pvfs", "fifo", "a", 1.0, false),
		mk("scan", "pvfs", "fair", "a", 1.0, false),
	}
	if p := experiments.CheckTenantsInvariant(uncontended); len(p) == 0 {
		t.Fatal("sweep with only uncontended cases passed vacuously")
	}
	halfgroup := []experiments.TenantRow{mk("twins", "pvfs", "fifo", "a", 1.4, true)}
	if p := experiments.CheckTenantsInvariant(halfgroup); len(p) == 0 {
		t.Fatal("contended case missing its fair group not flagged")
	}
	unverified := append([]experiments.TenantRow{}, good...)
	unverified[1].Verified = false
	if p := experiments.CheckTenantsInvariant(unverified); len(p) != 1 || !strings.Contains(p[0], "verification") {
		t.Fatalf("failed verification not flagged: %v", p)
	}
	// A gpfs-only sweep bounds but cannot show the pvfs win.
	gpfsOnly := []experiments.TenantRow{
		mk("g", "gpfs", "fifo", "a", 1.4, true),
		mk("g", "gpfs", "fair", "a", 1.3, true),
	}
	if p := experiments.CheckTenantsInvariant(gpfsOnly); len(p) != 1 || !strings.Contains(p[0], "pvfs") {
		t.Fatalf("missing pvfs case not flagged: %v", p)
	}
}

// TestCheckFlagsFailLoudly pins the gates' failure modes for every family
// -check covers: a missing baseline file and a present-but-empty baseline
// must both exit nonzero with a diagnostic, never pass silently.
func TestCheckFlagsFailLoudly(t *testing.T) {
	cases := []struct {
		name  string
		empty string // JSON with zero matching rows
	}{
		{"dedup", `{"Dedup": []}`},
		{"hints", `{"Hints": []}`},
		{"tenants", `{"Tenants": []}`},
	}
	for _, tc := range cases {
		t.Run(tc.name+"/missing-file", func(t *testing.T) {
			var stdout, stderr bytes.Buffer
			code := run([]string{"-check", "-only", tc.name, "-dir", t.TempDir()}, &stdout, &stderr)
			if code != 1 {
				t.Fatalf("exit code = %d, want 1", code)
			}
			if !strings.Contains(stderr.String(), "benchdiff -update") {
				t.Errorf("missing-file error does not tell how to regenerate: %q", stderr.String())
			}
		})
		t.Run(tc.name+"/zero-rows", func(t *testing.T) {
			var stdout, stderr bytes.Buffer
			dir := t.TempDir()
			if err := os.WriteFile(filepath.Join(dir, "BENCH_"+tc.name+".json"), []byte(tc.empty), 0o644); err != nil {
				t.Fatal(err)
			}
			code := run([]string{"-check", "-only", tc.name, "-dir", dir}, &stdout, &stderr)
			if code != 1 {
				t.Fatalf("exit code = %d, want 1 (vacuous pass)", code)
			}
			if !strings.Contains(stdout.String(), "INVARIANT VIOLATED") {
				t.Errorf("zero-row baseline did not report a violation: %q", stdout.String())
			}
		})
	}
}

// TestRegistryMatchesBaselines holds the registry and the committed files
// to each other without running a simulation: sweep and family names are
// unique, a section has a key exactly when a family holds it, every
// family's BENCH_<family>.json exists with exactly that family's keys in
// that order (a family naming an unregistered sweep comes up short here)
// and survives a read/write round trip byte for byte, and -check passes on
// all of them.
func TestRegistryMatchesBaselines(t *testing.T) {
	root := filepath.Join("..", "..")
	gated := make(map[string]bool) // section key -> held by a family
	seen := make(map[string]bool)
	for _, f := range experiments.Families() {
		if f.Name == "" || seen[f.Name] {
			t.Errorf("family name %q is empty or duplicated", f.Name)
		}
		seen[f.Name] = true
		var want []string
		for _, sec := range f.Sections {
			if sec.Key == "" || gated[sec.Key] {
				t.Errorf("family %s: section key %q is empty or held twice", f.Name, sec.Key)
			}
			gated[sec.Key] = true
			want = append(want, sec.Key)
		}
		path := filepath.Join(root, "BENCH_"+f.Name+".json")
		b, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		// Reading the file and writing it back must not move a byte: -update
		// on unchanged rows leaves `git diff` empty.
		rewritten := filepath.Join(t.TempDir(), "rewritten.json")
		if rows, err := readFamily(path, f); err != nil {
			t.Error(err)
		} else if err := writeFamily(rewritten, f, rows); err != nil {
			t.Error(err)
		} else if again, _ := os.ReadFile(rewritten); !bytes.Equal(again, b) {
			t.Errorf("BENCH_%s.json does not survive a read/write round trip", f.Name)
		}
		var got []string
		dec := json.NewDecoder(bytes.NewReader(b))
		for depth := 0; ; {
			tok, err := dec.Token()
			if err != nil {
				break
			}
			switch d, _ := tok.(json.Delim); {
			case d == '{' || d == '[':
				depth++
			case d == '}' || d == ']':
				depth--
			case depth == 1:
				got = append(got, tok.(string))
			}
		}
		if !slices.Equal(got, want) {
			t.Errorf("BENCH_%s.json has top-level keys %v, the registry says %v", f.Name, got, want)
		}
	}
	seen = make(map[string]bool)
	for _, s := range experiments.Registry() {
		if s.Name == "" || s.Name == "all" || seen[s.Name] {
			t.Errorf("sweep name %q is empty, reserved or duplicated", s.Name)
		}
		seen[s.Name] = true
		for _, sec := range s.Sections {
			if sec.Key != "" && !gated[sec.Key] {
				t.Errorf("sweep %s: section %q has a baseline key but no family holds it", s.Name, sec.Key)
			}
		}
	}

	var stdout, stderr bytes.Buffer
	if code := run([]string{"-check", "-dir", root}, &stdout, &stderr); code != 0 {
		t.Fatalf("-check on the committed baselines: exit %d\n%s%s", code, stdout.String(), stderr.String())
	}
	for _, family := range []string{"dedup", "hints", "tenants"} {
		if !strings.Contains(stdout.String(), family+" baseline ok: ") {
			t.Errorf("-check did not cover %s:\n%s", family, stdout.String())
		}
	}
}

// TestFailedFamilyDoesNotStopTheRest drives the family loop through all
// three outcomes without a simulation: under -check, a family whose file is
// missing and one whose invariant is violated must not keep the third from
// being checked, and the last line must name exactly the two that failed.
func TestFailedFamilyDoesNotStopTheRest(t *testing.T) {
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, "BENCH_hints.json"), []byte(`{"Hints": []}`), 0o644); err != nil {
		t.Fatal(err)
	}
	good, err := os.ReadFile(filepath.Join("..", "..", "BENCH_tenants.json"))
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, "BENCH_tenants.json"), good, 0o644); err != nil {
		t.Fatal(err)
	}
	var stdout, stderr bytes.Buffer
	if code := run([]string{"-check", "-dir", dir}, &stdout, &stderr); code != 1 {
		t.Fatalf("exit code = %d, want 1\n%s%s", code, stdout.String(), stderr.String())
	}
	out := stdout.String()
	if !strings.Contains(stderr.String(), "error: dedup:") || !strings.Contains(out, "HINTS INVARIANT VIOLATED") {
		t.Errorf("the two failures were not both reported:\n%s%s", out, stderr.String())
	}
	if !strings.Contains(out, "tenants baseline ok: ") {
		t.Errorf("tenants was not checked after dedup and hints failed:\n%s", out)
	}
	if !strings.Contains(out, "families that drifted or failed: dedup, hints\n") {
		t.Errorf("the exit line does not name the failed families:\n%s", out)
	}
}

func TestBadFlagsRejected(t *testing.T) {
	for _, args := range [][]string{
		{"-bogus"},
		{"extra-arg"},
		{"-only", "bogus"},
		{"-update", "-only", "scale,bogus"}, // one bad name refuses the whole list, before anything runs
		{"-check", "-update"},               // -check reads the files -update would overwrite
		{"-check", "-only", "reads"},        // nothing to check must not read as a pass
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
