package diag

import (
	"strings"
	"testing"
)

// findBy returns the findings a given detector produced.
func findBy(fs []Finding, detector string) []Finding {
	var out []Finding
	for _, f := range fs {
		if f.Detector == detector {
			out = append(out, f)
		}
	}
	return out
}

func TestDetectImbalance(t *testing.T) {
	rep := &Report{Meta: RunMeta{Makespan: 100}}
	rep.Ranks = []RankIO{{0, 10}, {1, 10}, {2, 10}, {3, 10}}
	if fs := findBy(Analyze(rep), "rank-imbalance"); len(fs) != 0 {
		t.Fatalf("balanced ranks produced findings: %+v", fs)
	}

	rep.Ranks = []RankIO{{0, 20}, {1, 10}, {2, 10}, {3, 10}} // max/mean 1.6
	fs := findBy(Analyze(rep), "rank-imbalance")
	if len(fs) != 1 || fs[0].Severity != SevWarn {
		t.Fatalf("moderate imbalance: got %+v, want one warning", fs)
	}

	rep.Ranks = []RankIO{{0, 40}, {1, 1}, {2, 1}, {3, 1}} // max/mean ~3.7
	fs = findBy(Analyze(rep), "rank-imbalance")
	if len(fs) != 1 || fs[0].Severity != SevCritical {
		t.Fatalf("severe imbalance: got %+v, want one critical", fs)
	}

	// Under 1% of the makespan the imbalance is immaterial.
	rep.Ranks = []RankIO{{0, 0.5}, {1, 0.01}, {2, 0.01}, {3, 0.01}}
	if fs := findBy(Analyze(rep), "rank-imbalance"); len(fs) != 0 {
		t.Fatalf("immaterial imbalance still fired: %+v", fs)
	}
}

func TestDetectStragglerServers(t *testing.T) {
	healthy := func() []ServerLoad {
		return []ServerLoad{
			{Name: "iod0/disk", Class: "iod/disk", Requests: 100, BusySeconds: 1.0, WaitSeconds: 0.1},
			{Name: "iod1/disk", Class: "iod/disk", Requests: 100, BusySeconds: 1.0, WaitSeconds: 0.1},
			{Name: "iod2/disk", Class: "iod/disk", Requests: 100, BusySeconds: 1.1, WaitSeconds: 0.1},
			{Name: "iod3/disk", Class: "iod/disk", Requests: 100, BusySeconds: 0.9, WaitSeconds: 0.1},
		}
	}
	rep := &Report{Servers: healthy()}
	if fs := findBy(Analyze(rep), "straggler-server"); len(fs) != 0 {
		t.Fatalf("healthy fleet produced findings: %+v", fs)
	}

	// One server at 10x the class median service time with queue built up.
	srv := healthy()
	srv[0].BusySeconds = 10
	srv[0].WaitSeconds = 5
	rep = &Report{Servers: srv}
	fs := findBy(Analyze(rep), "straggler-server")
	if len(fs) != 1 || fs[0].Severity != SevCritical {
		t.Fatalf("degraded server: got %+v, want one critical", fs)
	}
	if !strings.Contains(fs[0].Title, "iod0/disk") {
		t.Fatalf("finding does not name the straggler: %q", fs[0].Title)
	}

	// Slow service WITHOUT queue wait above the class median is a request-mix
	// artifact, not degradation — must not fire.
	srv = healthy()
	srv[0].BusySeconds = 10
	srv[0].WaitSeconds = 0.01
	rep = &Report{Servers: srv}
	if fs := findBy(Analyze(rep), "straggler-server"); len(fs) != 0 {
		t.Fatalf("wait corroboration failed, fired on mix artifact: %+v", fs)
	}

	// Two peers are not a class; no comparison possible.
	rep = &Report{Servers: []ServerLoad{
		{Name: "a0", Class: "a", Requests: 100, BusySeconds: 10, WaitSeconds: 5},
		{Name: "a1", Class: "a", Requests: 100, BusySeconds: 1, WaitSeconds: 0.1},
	}}
	if fs := findBy(Analyze(rep), "straggler-server"); len(fs) != 0 {
		t.Fatalf("two-peer class produced findings: %+v", fs)
	}
}

func TestDetectAmplification(t *testing.T) {
	rep := &Report{}
	rep.Traffic = Traffic{LogicalReadBytes: 10 << 20, PhysicalReadBytes: 10 << 20}
	if fs := findBy(Analyze(rep), "read-amplification"); len(fs) != 0 {
		t.Fatalf("1.0x amplification fired: %+v", fs)
	}

	rep.Traffic = Traffic{LogicalReadBytes: 10 << 20, PhysicalReadBytes: 20 << 20}
	fs := findBy(Analyze(rep), "read-amplification")
	if len(fs) != 1 || fs[0].Severity != SevWarn {
		t.Fatalf("2x read amplification: got %+v, want one warning", fs)
	}

	rep.Traffic = Traffic{LogicalReadBytes: 10 << 20, PhysicalReadBytes: 50 << 20}
	fs = findBy(Analyze(rep), "read-amplification")
	if len(fs) != 1 || fs[0].Severity != SevCritical {
		t.Fatalf("5x read amplification: got %+v, want one critical", fs)
	}

	// Under 1 MiB of excess is metadata noise regardless of ratio.
	rep.Traffic = Traffic{LogicalReadBytes: 1 << 10, PhysicalReadBytes: 100 << 10}
	if fs := findBy(Analyze(rep), "read-amplification"); len(fs) != 0 {
		t.Fatalf("sub-MiB excess fired: %+v", fs)
	}

	rep.Traffic = Traffic{LogicalWriteBytes: 10 << 20, PhysicalWriteBytes: 60 << 20}
	fs = findBy(Analyze(rep), "write-amplification")
	if len(fs) != 1 || fs[0].Severity != SevCritical {
		t.Fatalf("6x write amplification: got %+v, want one critical", fs)
	}
}

func TestDetectSmallRequests(t *testing.T) {
	rep := &Report{}
	rep.Sizes = SizeProfile{ThresholdBytes: 64 << 10, Requests: 1000, SmallRequests: 100, AvgBytes: 60e3}
	if fs := findBy(Analyze(rep), "small-requests"); len(fs) != 0 {
		t.Fatalf("10%% small fired: %+v", fs)
	}

	rep.Sizes = SizeProfile{ThresholdBytes: 64 << 10, Requests: 1000, SmallRequests: 600, AvgBytes: 40e3}
	fs := findBy(Analyze(rep), "small-requests")
	if len(fs) != 1 || fs[0].Severity != SevWarn {
		t.Fatalf("60%% small: got %+v, want one warning", fs)
	}

	rep.Sizes = SizeProfile{ThresholdBytes: 64 << 10, Requests: 1000, SmallRequests: 900, AvgBytes: 2000}
	fs = findBy(Analyze(rep), "small-requests")
	if len(fs) != 1 || fs[0].Severity != SevCritical {
		t.Fatalf("90%% small, tiny average: got %+v, want one critical", fs)
	}

	// Too few requests to mean anything.
	rep.Sizes = SizeProfile{ThresholdBytes: 64 << 10, Requests: 10, SmallRequests: 10, AvgBytes: 100}
	if fs := findBy(Analyze(rep), "small-requests"); len(fs) != 0 {
		t.Fatalf("10-request histogram fired: %+v", fs)
	}
}

func TestDetectCBMismatch(t *testing.T) {
	base := func() *Report {
		return &Report{
			Meta:    RunMeta{Procs: 8},
			FS:      FSGeom{Name: "pvfs", DataServers: 8, StripeUnitBytes: 64 << 10},
			Hints:   []HintSet{{File: "dump00.raw", CBNodes: 8}},
			Traffic: Traffic{CollectiveOps: 10},
		}
	}
	if fs := findBy(Analyze(base()), "cb-mismatch"); len(fs) != 0 {
		t.Fatalf("matched cb_nodes fired: %+v", fs)
	}

	rep := base()
	rep.Hints[0].CBNodes = 4
	fs := findBy(Analyze(rep), "cb-mismatch")
	if len(fs) != 1 || fs[0].Severity != SevWarn {
		t.Fatalf("2x under: got %+v, want one warning", fs)
	}

	rep = base()
	rep.Hints[0].CBNodes = 2 // 4x under
	fs = findBy(Analyze(rep), "cb-mismatch")
	if len(fs) != 1 || fs[0].Severity != SevCritical {
		t.Fatalf("4x under: got %+v, want one critical", fs)
	}

	// No collective ops ran: the hint is irrelevant.
	rep = base()
	rep.Hints[0].CBNodes = 2
	rep.Traffic.CollectiveOps = 0
	if fs := findBy(Analyze(rep), "cb-mismatch"); len(fs) != 0 {
		t.Fatalf("fired without collective ops: %+v", fs)
	}

	// cb_nodes=0 means one aggregator per rank; with 8 procs and 8 servers
	// the effective count matches.
	rep = base()
	rep.Hints[0].CBNodes = 0
	if fs := findBy(Analyze(rep), "cb-mismatch"); len(fs) != 0 {
		t.Fatalf("effective-match fired: %+v", fs)
	}
}

func TestDetectUnhiddenAsync(t *testing.T) {
	rep := &Report{Meta: RunMeta{Async: true, ExposedWrite: 8, HiddenWrite: 2}}
	fs := findBy(Analyze(rep), "unhidden-async")
	if len(fs) != 1 || fs[0].Severity != SevWarn {
		t.Fatalf("80%% exposed async: got %+v, want one warning", fs)
	}

	rep = &Report{Meta: RunMeta{Async: true, ExposedWrite: 1, HiddenWrite: 9}}
	fs = findBy(Analyze(rep), "unhidden-async")
	if len(fs) != 1 || fs[0].Severity != SevInfo {
		t.Fatalf("well-hidden async: got %+v, want one info", fs)
	}

	rep = &Report{Meta: RunMeta{Makespan: 100,
		Phases: []PhaseSecs{{Name: "write", Seconds: 30}}}}
	fs = findBy(Analyze(rep), "unhidden-async")
	if len(fs) != 1 || fs[0].Severity != SevInfo {
		t.Fatalf("sync write-heavy run: got %+v, want one info", fs)
	}
}

// TestAsyncAdviceAsksValidate: a write-heavy synchronous run gets the
// write-behind advice and suggestion only where enzo.RunSpec.Validate takes
// AsyncIO — on mpiio, not on hdf4.
func TestAsyncAdviceAsksValidate(t *testing.T) {
	for backend, want := range map[string]int{"mpiio": 1, "hdf4": 0} {
		rep := &Report{Meta: RunMeta{Backend: backend, FS: "gpfs", Procs: 8, Makespan: 10,
			Phases: []PhaseSecs{{Name: "write", Seconds: 2.4}}}}
		fs, ds := findBy(Analyze(rep), "unhidden-async"), Suggest(rep)
		if len(fs) != want || len(ds) != want {
			t.Errorf("%s, write 24%% of the makespan: findings %+v, suggestions %+v; want %d of each", backend, fs, ds, want)
		}
	}
}

func TestDetectFaults(t *testing.T) {
	rep := &Report{Timeouts: 3, Retries: 7}
	fs := findBy(Analyze(rep), "io-faults")
	if len(fs) != 1 || fs[0].Severity != SevWarn {
		t.Fatalf("timeouts: got %+v, want one warning", fs)
	}

	rep = &Report{
		Meta:        RunMeta{ScrubFailures: 2, Redumps: 1},
		Generations: []GenStat{{Name: "dump:00", Count: 4, Seconds: 2}, {Name: "redump:00.0", Count: 4, Seconds: 1.5}},
	}
	fs = findBy(Analyze(rep), "scrub-churn")
	if len(fs) != 1 || fs[0].ImpactSeconds != 1.5 {
		t.Fatalf("scrub churn: got %+v, want one finding with redump impact 1.5", fs)
	}
}

func TestAnalyzeOrdering(t *testing.T) {
	rep := &Report{
		Meta:  RunMeta{Procs: 8, Makespan: 100},
		Ranks: []RankIO{{0, 40}, {1, 1}, {2, 1}, {3, 1}},                                                 // critical
		Sizes: SizeProfile{ThresholdBytes: 64 << 10, Requests: 1000, SmallRequests: 600, AvgBytes: 40e3}, // warn
		Matrix: []Cell{
			{Phase: "write", Layer: "pfs", Seconds: 50},
		}, // info
	}
	fs := Analyze(rep)
	if len(fs) < 3 {
		t.Fatalf("expected >= 3 findings, got %+v", fs)
	}
	for i := 1; i < len(fs); i++ {
		if fs[i].Severity > fs[i-1].Severity {
			t.Fatalf("findings not sorted by severity: %+v", fs)
		}
	}
	if fs[0].Detector != "rank-imbalance" {
		t.Fatalf("critical finding not first: %+v", fs[0])
	}
}

func TestMaxSeverity(t *testing.T) {
	if got := MaxSeverity(nil); got >= SevInfo {
		t.Fatalf("MaxSeverity(nil) = %v, want below SevInfo", got)
	}
	fs := []Finding{{Severity: SevInfo}, {Severity: SevWarn}}
	if got := MaxSeverity(fs); got != SevWarn {
		t.Fatalf("MaxSeverity = %v, want SevWarn", got)
	}
}
