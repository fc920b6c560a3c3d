package tenant

import (
	"bytes"
	"errors"
	"math"
	"strings"
	"testing"

	"repro/internal/diag"
	"repro/internal/enzo"
	"repro/internal/machine"
	"repro/internal/sim"
)

// twoJobFleet is the canonical contended fixture: two Tiny enzo jobs on
// chiba/pvfs, the second starting inside the first's I/O window.
func twoJobFleet(policy string) FleetConfig {
	return FleetConfig{
		Machine: machine.ChibaCity(),
		FS:      "pvfs",
		Policy:  policy,
		Jobs: []JobSpec{
			{Name: "amr-a", Kind: KindEnzo, Procs: 4, Config: enzo.Tiny(), Backend: enzo.BackendMPIIO},
			{Name: "amr-b", Kind: KindEnzo, Procs: 4, StartAt: 0.5, Config: enzo.Tiny(), Backend: enzo.BackendMPIIO},
		},
	}
}

// TestSingleJobFleetMatchesRunOnce: a one-job FIFO fleet is the same
// simulation Run performs — same engine, same placement, same
// (prefixed) namespace — so its I/O time must be bit-identical.
func TestSingleJobFleetMatchesRunOnce(t *testing.T) {
	ref, err := enzo.Run(enzo.RunSpec{Machine: machine.ChibaCity(), FS: "pvfs", Procs: 4, Config: enzo.Tiny(), Backend: enzo.BackendMPIIO})
	if err != nil {
		t.Fatal(err)
	}
	fr, err := RunFleet(FleetConfig{
		Machine: machine.ChibaCity(), FS: "pvfs",
		Jobs: []JobSpec{{Name: "solo", Kind: KindEnzo, Procs: 4,
			Config: enzo.Tiny(), Backend: enzo.BackendMPIIO}},
	})
	if err != nil {
		t.Fatal(err)
	}
	j := fr.Jobs[0]
	if j.IOSec != ref.IOTime() {
		t.Errorf("single-job fleet I/O = %g, Run = %g (must be bit-identical)", j.IOSec, ref.IOTime())
	}
	if j.Slowdown != 1 {
		t.Errorf("single-job slowdown = %g, want exactly 1 (alone == contended)", j.Slowdown)
	}
	if !j.Verified {
		t.Error("single-job fleet did not verify the restart")
	}
}

// TestFleetContentionAndFairness: under FIFO the contended fleet slows at
// least one job down; fair queueing keeps the worst slowdown no worse,
// and neither policy changes what the jobs compute (both verify).
func TestFleetContentionAndFairness(t *testing.T) {
	fifo, err := RunFleet(twoJobFleet("fifo"))
	if err != nil {
		t.Fatal(err)
	}
	fair, err := RunFleet(twoJobFleet("fair"))
	if err != nil {
		t.Fatal(err)
	}
	for _, fr := range []*FleetResult{fifo, fair} {
		for _, j := range fr.Jobs {
			if !j.Verified {
				t.Errorf("%s/%s did not verify", fr.Policy, j.Name)
			}
			if j.Slowdown < 1-1e-9 {
				t.Errorf("%s/%s slowdown %g < 1: contention cannot speed a job up", fr.Policy, j.Name, j.Slowdown)
			}
			if j.AloneIOSec <= 0 {
				t.Errorf("%s/%s alone I/O time is %g", fr.Policy, j.Name, j.AloneIOSec)
			}
		}
	}
	if fifo.WorstSlowdown() <= 1 {
		t.Errorf("FIFO worst slowdown %g: fixture is not contended", fifo.WorstSlowdown())
	}
	if fair.WorstSlowdown() > fifo.WorstSlowdown()+1e-9 {
		t.Errorf("fair worst slowdown %g exceeds FIFO's %g", fair.WorstSlowdown(), fifo.WorstSlowdown())
	}
}

// TestFleetDeterministic: the same fleet twice gives identical numbers.
func TestFleetDeterministic(t *testing.T) {
	a, err := RunFleet(twoJobFleet("fair"))
	if err != nil {
		t.Fatal(err)
	}
	b, err := RunFleet(twoJobFleet("fair"))
	if err != nil {
		t.Fatal(err)
	}
	if a.Makespan != b.Makespan {
		t.Errorf("makespans differ: %g vs %g", a.Makespan, b.Makespan)
	}
	for i := range a.Jobs {
		if a.Jobs[i] != b.Jobs[i] {
			t.Errorf("job %d differs across runs: %+v vs %+v", i, a.Jobs[i], b.Jobs[i])
		}
	}
}

// TestFleetReaderJob: a synthetic scan job contends with a writer and
// reports a positive, finite slowdown.
func TestFleetReaderJob(t *testing.T) {
	cfg := FleetConfig{
		Machine: machine.ChibaCity(),
		FS:      "pvfs",
		Jobs: []JobSpec{
			{Name: "amr", Kind: KindEnzo, Procs: 4, Config: enzo.Tiny(), Backend: enzo.BackendMPIIO},
			{Name: "scan job", Kind: KindReader, Procs: 2, StartAt: 0.25,
				ReadBytes: 4 << 20, Passes: 3},
		},
	}
	fr, err := RunFleet(cfg)
	if err != nil {
		t.Fatal(err)
	}
	scan := fr.Jobs[1]
	if scan.Kind != "reader" || scan.Problem != "scan" {
		t.Errorf("reader job misreported: %+v", scan)
	}
	if scan.IOSec <= 0 || math.IsInf(scan.Slowdown, 0) || scan.Slowdown < 1-1e-9 {
		t.Errorf("reader I/O %g, slowdown %g", scan.IOSec, scan.Slowdown)
	}
	if scan.FinishAt <= scan.StartAt {
		t.Errorf("reader finished at %g, before its start %g", scan.FinishAt, scan.StartAt)
	}
}

// TestFleetBurstBufferAndTrace: the staging tier composes with the fleet
// and the tracer yields per-job telemetry under prefixed file names.
func TestFleetBurstBufferAndTrace(t *testing.T) {
	cfg := twoJobFleet("fair")
	cfg.BurstBuffer = true
	cfg.Trace = true
	fr, err := RunFleet(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if fr.Tracer == nil {
		t.Fatal("Trace set but no tracer returned")
	}
	jobs := map[string]bool{}
	for _, fc := range fr.Tracer.Counters() {
		if i := strings.IndexByte(fc.File, '/'); i > 0 {
			jobs[fc.File[:i]] = true
		}
	}
	for _, name := range []string{"amr-a", "amr-b"} {
		if !jobs[name] {
			t.Errorf("no file counters under job namespace %q (saw %v)", name, jobs)
		}
	}
	for _, j := range fr.Jobs {
		if !j.Verified {
			t.Errorf("%s did not verify under the burst buffer", j.Name)
		}
	}
}

// TestFleetValidation: bad fleets fail fast with errors, not panics.
func TestFleetValidation(t *testing.T) {
	base := func() FleetConfig { return twoJobFleet("fifo") }
	cases := []struct {
		name string
		mut  func(*FleetConfig)
		want string
	}{
		{"empty", func(c *FleetConfig) { c.Jobs = nil }, "at least one job"},
		{"unnamed", func(c *FleetConfig) { c.Jobs[0].Name = "" }, "needs a name"},
		{"duplicate", func(c *FleetConfig) { c.Jobs[1].Name = c.Jobs[0].Name }, "duplicate job name"},
		{"overflow", func(c *FleetConfig) { c.Jobs[0].Procs = 999 }, "nodes"},
		{"policy", func(c *FleetConfig) { c.Policy = "lottery" }, "unknown policy"},
		{"nofairhost", func(c *FleetConfig) { c.FS = "xfs"; c.Policy = "fair" }, "does not support scheduling"},
		{"badweight", func(c *FleetConfig) { c.Jobs[0].Weight = -2 }, "negative weight"},
		{"codec", func(c *FleetConfig) { c.Jobs[0].Config.Codec = "zip" }, "unknown codec"},
		{"budget", func(c *FleetConfig) { c.Jobs[1].Config.MemBudget = 1 }, "budget"},
	}
	for _, tc := range cases {
		cfg := base()
		tc.mut(&cfg)
		_, err := RunFleet(cfg)
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: err = %v, want containing %q", tc.name, err, tc.want)
		}
		var pe *sim.PanicError
		if errors.As(err, &pe) {
			t.Errorf("%s: err is a panic, not an error: %v", tc.name, err)
		}
		var fe *enzo.FootprintError
		if tc.name == "budget" && !errors.As(err, &fe) {
			t.Errorf("budget: err = %v, want a *enzo.FootprintError", err)
		}
	}
}

// TestFleetReportJobs drives a real 2-job traced fleet through DiagJobs
// into a diag report: both jobs appear with positive I/O times and the
// rendered OpenMetrics stay byte-identical across a re-run of the
// identical fleet.
func TestFleetReportJobs(t *testing.T) {
	runOnce := func() (*diag.Report, string) {
		fr, err := RunFleet(FleetConfig{
			Machine: machine.ChibaCity(), FS: "pvfs", Policy: "fifo", Trace: true,
			Jobs: []JobSpec{
				{Name: "amr a", Kind: KindEnzo, Procs: 2, Config: enzo.Tiny(), Backend: enzo.BackendMPIIO},
				{Name: "amr b", Kind: KindEnzo, Procs: 2, StartAt: 0.25, Config: enzo.Tiny(), Backend: enzo.BackendMPIIO},
			},
		})
		if err != nil {
			t.Fatal(err)
		}
		rep := diag.Snapshot(fr.Tracer, diag.RunMeta{Machine: "chiba", FS: "pvfs", Procs: 4, Makespan: fr.Makespan})
		rep.Jobs = fr.DiagJobs()
		var buf bytes.Buffer
		diag.WriteOpenMetrics(&buf, rep, nil)
		return rep, buf.String()
	}
	rep, om1 := runOnce()
	if len(rep.Jobs) != 2 {
		t.Fatalf("got %d job rows, want 2", len(rep.Jobs))
	}
	for _, j := range rep.Jobs {
		if j.IOSeconds <= 0 || j.Slowdown <= 0 || !j.Verified {
			t.Fatalf("bad job row: %+v", j)
		}
	}
	if !strings.Contains(om1, `iodoctor_job_slowdown{job="amr a",kind="enzo"}`) {
		t.Fatalf("job with a space in its name not labeled:\n%s", om1)
	}
	if _, om2 := runOnce(); om2 != om1 {
		t.Fatal("identical fleets rendered different metrics")
	}
}
