package diag

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"

	"repro/internal/enzo"
	"repro/internal/faultfs"
	"repro/internal/machine"
	"repro/internal/mpiio"
	"repro/internal/obs"
	"repro/internal/pfs"
)

func testMach() machine.Config {
	return machine.Config{
		Name: "t", Nodes: 8, ProcsPerNode: 1,
		WireLatency: 20e-6, LinkBW: 150e6, SendOverhead: 2e-6, RecvOverhead: 2e-6,
		MemLatency: 1e-6, MemCopyBW: 800e6, ComputeRate: 1e9,
	}
}

// TestDegenerateInputs drives every entry point with empty, nil and
// minimal inputs: none may panic, all must come back empty-but-valid.
func TestDegenerateInputs(t *testing.T) {
	if rep := Snapshot(nil, RunMeta{}); rep == nil {
		t.Fatal("Snapshot(nil tracer) returned nil")
	}
	if rep := Snapshot(obs.NewTracer(), RunMeta{}); len(rep.Matrix) != 0 || len(rep.Ranks) != 0 {
		t.Fatalf("empty tracer produced tables: %+v", rep)
	}
	if fs := Analyze(nil); fs != nil {
		t.Fatalf("Analyze(nil) = %+v", fs)
	}
	if fs := Analyze(&Report{}); len(fs) != 0 {
		t.Fatalf("Analyze(zero report) = %+v", fs)
	}
	if ds := Suggest(nil); ds != nil {
		t.Fatalf("Suggest(nil) = %+v", ds)
	}
	if ds := Suggest(&Report{}); len(ds) != 0 {
		t.Fatalf("Suggest(zero report) = %+v", ds)
	}
	if fs := Diff(nil, &Report{}); fs != nil {
		t.Fatalf("Diff(nil base) = %+v", fs)
	}
	if fs := Diff(&Report{}, &Report{}); len(fs) != 0 {
		t.Fatalf("Diff of zero reports = %+v", fs)
	}

	// Formatting must also tolerate emptiness.
	var buf bytes.Buffer
	WriteFindings(&buf, nil)
	WriteSuggestions(&buf, nil)
	WriteReportText(&buf, &Report{})
	WriteOpenMetrics(&buf, &Report{}, nil)
	if !strings.Contains(buf.String(), "# EOF") {
		t.Error("OpenMetrics output missing # EOF terminator")
	}
}

// TestSingleRankRun diagnoses an np=1 run: detectors that need peers
// (imbalance, stragglers among one-member classes) stay silent and
// nothing panics.
func TestSingleRankRun(t *testing.T) {
	cfg := enzo.Tiny()
	tr := obs.NewTracer()
	res, err := enzo.RunOnceTraced(testMach(), "local", 1, cfg, enzo.BackendMPIIO, tr)
	if err != nil {
		t.Fatal(err)
	}
	rep := Snapshot(tr, MetaFromResult("t", res, cfg))
	if len(rep.Ranks) != 1 {
		t.Fatalf("got %d rank rows, want 1", len(rep.Ranks))
	}
	fs := Analyze(rep)
	if len(findBy(fs, "rank-imbalance")) != 0 {
		t.Fatalf("rank-imbalance fired on a single rank: %+v", fs)
	}
}

// TestFaultedRunSnapshot diagnoses a corrupted scrub+redump run end to
// end: Snapshot/Analyze must survive the messier span forest (redump
// nesting, extra scrub generations) and attribute the churn.
func TestFaultedRunSnapshot(t *testing.T) {
	cfg := enzo.Tiny()
	cfg.ScrubOnDump = true
	tr := obs.NewTracer()
	res, err := enzo.Run(enzo.RunSpec{Machine: testMach(), FS: "xfs", Procs: 4, Config: cfg, Backend: enzo.BackendMPIIO,
		Wrap: func(fs pfs.FileSystem) pfs.FileSystem {
			return faultfs.Wrap(fs, faultfs.Config{
				Mode: faultfs.CorruptWrite, EveryN: 3, MinBytes: 2048,
				FileSubstr: "dump00.raw", MaxInject: 3,
			})
		},
		Tracer: tr,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Redumps == 0 {
		t.Fatal("no re-dump happened; test proves nothing")
	}
	rep := Snapshot(tr, MetaFromResult("t", res, cfg))
	var haveDump, haveRedump, haveScrub bool
	for _, g := range rep.Generations {
		switch {
		case strings.HasPrefix(g.Name, "dump:"):
			haveDump = true
		case strings.HasPrefix(g.Name, "redump:"):
			haveRedump = true
			if g.Seconds <= 0 {
				t.Errorf("redump generation %q has no attributed time", g.Name)
			}
		case strings.HasPrefix(g.Name, "scrub:"):
			haveScrub = true
		}
	}
	if !haveDump || !haveRedump || !haveScrub {
		t.Fatalf("generation table incomplete (dump=%v redump=%v scrub=%v): %+v",
			haveDump, haveRedump, haveScrub, rep.Generations)
	}
	fs := Analyze(rep)
	if len(findBy(fs, "scrub-churn")) != 1 {
		t.Fatalf("scrub churn not detected: %+v", fs)
	}
}

// TestSnapshotDeterminism runs the same configuration twice and demands
// byte-identical JSON documents — the property the CLIs' byte-identical
// output guarantee rests on.
func TestSnapshotDeterminism(t *testing.T) {
	doc := func() []byte {
		cfg := enzo.Tiny()
		tr := obs.NewTracer()
		res, err := enzo.RunOnceTraced(testMach(), "pvfs", 4, cfg, enzo.BackendMPIIO, tr)
		if err != nil {
			t.Fatal(err)
		}
		rep := Snapshot(tr, MetaFromResult("t", res, cfg))
		d := Document{Report: rep, Findings: Analyze(rep), Suggestions: Suggest(rep)}
		b, err := json.Marshal(d)
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	a, b := doc(), doc()
	if !bytes.Equal(a, b) {
		t.Error("identical runs produced different diagnosis documents")
	}
}

// TestDiff exercises the regression attributor on synthetic reports.
func TestDiff(t *testing.T) {
	base := &Report{Meta: RunMeta{Makespan: 100, Phases: []PhaseSecs{
		{Name: "read", Seconds: 20}, {Name: "write", Seconds: 30},
	}}}
	base.Matrix = []Cell{{Phase: "write", Layer: "pfs", Seconds: 25}}

	cur := &Report{Meta: RunMeta{Makespan: 130, Phases: []PhaseSecs{
		{Name: "read", Seconds: 15}, {Name: "write", Seconds: 60},
	}}}
	cur.Matrix = []Cell{{Phase: "write", Layer: "pfs", Seconds: 55}}

	fs := Diff(base, cur)
	regs := findBy(fs, "diff-regression")
	if len(regs) != 1 || regs[0].Severity != SevCritical {
		t.Fatalf("write doubled: got %+v, want one critical regression", regs)
	}
	if !strings.Contains(regs[0].Detail, "pfs layer") {
		t.Fatalf("regression not attributed to the pfs layer: %q", regs[0].Detail)
	}
	if imp := findBy(fs, "diff-improvement"); len(imp) != 1 {
		t.Fatalf("read improvement not reported: %+v", fs)
	}
	if fs[0].Detector != "diff-regression" {
		t.Fatalf("regression not ranked first: %+v", fs[0])
	}
}

// TestSuggestAndApply checks the delta rules on synthetic reports and the
// Apply plumbing into mpiio.Hints.
func TestSuggestAndApply(t *testing.T) {
	rep := &Report{
		Meta:    RunMeta{Procs: 8},
		FS:      FSGeom{Name: "pvfs", DataServers: 8, StripeUnitBytes: 64 << 10},
		Hints:   []HintSet{{File: "dump00.raw", CBNodes: 2, DataSieving: true, SieveBufferBytes: 4 << 20}},
		Traffic: Traffic{CollectiveOps: 10},
	}
	ds := Suggest(rep)
	var cb *HintsDelta
	for i := range ds {
		if ds[i].Param == "cb_nodes" {
			cb = &ds[i]
		}
	}
	if cb == nil || cb.CBNodes == nil || *cb.CBNodes != 8 {
		t.Fatalf("no cb_nodes=8 delta: %+v", ds)
	}
	h := ApplyAll(ds, mpiio.Hints{CBNodes: 2})
	if h.CBNodes != 8 {
		t.Fatalf("ApplyAll left CBNodes=%d, want 8", h.CBNodes)
	}

	// Heavy read amplification with sieving on: the rule disables sieving.
	rep = &Report{
		Hints:   []HintSet{{File: "f", DataSieving: true, SieveBufferBytes: 4 << 20}},
		Traffic: Traffic{LogicalReadBytes: 10 << 20, PhysicalReadBytes: 50 << 20},
	}
	ds = Suggest(rep)
	if len(ds) == 0 || ds[0].Param != "data_sieving" || ds[0].DataSieving == nil || *ds[0].DataSieving {
		t.Fatalf("no data_sieving=false delta: %+v", ds)
	}
}

// TestOpenMetricsJobRows pins the multi-job report path: per-job gauges
// appear in spec order, label values with spaces, quotes and backslashes
// are escaped, and repeated renders are byte-identical.
func TestOpenMetricsJobRows(t *testing.T) {
	rep := &Report{
		Jobs: []JobIO{
			{Name: "amr-a", Kind: "enzo", Problem: "AMR64", Procs: 4,
				IOSeconds: 2.5, AloneSec: 2.0, Slowdown: 1.25, Verified: true},
			{Name: `scan "job" b\1`, Kind: "reader", Procs: 4,
				IOSeconds: 3.0, AloneSec: 3.0, Slowdown: 1.0, Verified: true},
		},
	}

	var buf bytes.Buffer
	WriteOpenMetrics(&buf, rep, nil)
	out := buf.String()

	wantEscaped := `iodoctor_job_slowdown{job="scan \"job\" b\\1",kind="reader"} 1`
	if !strings.Contains(out, wantEscaped) {
		t.Fatalf("escaped job label missing:\nwant %s\nin:\n%s", wantEscaped, out)
	}
	first := strings.Index(out, `iodoctor_job_io_seconds{job="amr-a"`)
	second := strings.Index(out, `iodoctor_job_io_seconds{job="scan`)
	if first < 0 || second < 0 || first > second {
		t.Fatalf("job gauges missing or out of spec order (%d, %d):\n%s", first, second, out)
	}
	if !strings.HasSuffix(out, "# EOF\n") {
		t.Fatalf("output does not end with the EOF marker:\n%s", out)
	}

	var again bytes.Buffer
	WriteOpenMetrics(&again, rep, nil)
	if again.String() != out {
		t.Fatal("repeated WriteOpenMetrics renders differ")
	}

	// The text report renders the same rows and is equally stable.
	var txt1, txt2 bytes.Buffer
	WriteReportText(&txt1, rep)
	WriteReportText(&txt2, rep)
	if txt1.String() != txt2.String() {
		t.Fatal("repeated WriteReportText renders differ")
	}
	if !strings.Contains(txt1.String(), "tenant jobs") {
		t.Fatalf("text report missing the jobs section:\n%s", txt1.String())
	}
}

// BenchmarkSnapshot distills one traced Tiny/np=4 run: the span-forest walk,
// the counters and the server streams.
func BenchmarkSnapshot(b *testing.B) {
	cfg := enzo.Tiny()
	tr := obs.NewTracer()
	res, err := enzo.RunOnceTraced(machine.ChibaCity(), "pvfs", 4, cfg, enzo.BackendMPIIO, tr)
	if err != nil {
		b.Fatal(err)
	}
	meta := MetaFromResult("chiba", res, cfg)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if rep := Snapshot(tr, meta); len(rep.Matrix) == 0 {
			b.Fatal("empty report")
		}
	}
}
