package diag

import (
	"testing"

	"repro/internal/enzo"
	"repro/internal/machine"
)

func TestProbeConfigShape(t *testing.T) {
	cfg := enzo.AMR128()
	cfg.Dumps = 3
	cfg.RefineCycles = 2
	p := ProbeConfig(cfg)
	if p.Dims != [3]int{64, 64, 64} {
		t.Fatalf("probe dims = %v, want halved", p.Dims)
	}
	if p.NParticles*8 != cfg.NParticles {
		t.Fatalf("probe particles = %d, want volume-shrunk from %d", p.NParticles, cfg.NParticles)
	}
	if p.Dumps != 1 || p.RefineCycles != 0 {
		t.Fatalf("probe must run one dump and no refinement, got dumps=%d refine=%d", p.Dumps, p.RefineCycles)
	}
	if p.Problem != "AMR128-probe" {
		t.Fatalf("probe problem = %q", p.Problem)
	}
	// The I/O-shaping knobs must carry over untouched.
	if p.Codec != cfg.Codec || p.CBNodes != cfg.CBNodes || p.AsyncIO != cfg.AsyncIO {
		t.Fatal("probe config dropped I/O-shaping knobs")
	}

	// A problem already at the floor must not shrink below it.
	tiny := enzo.Tiny()
	pt := ProbeConfig(tiny)
	if pt.Dims != tiny.Dims || pt.NParticles != tiny.NParticles {
		t.Fatalf("tiny probe shrank below the floor: %v", pt.Dims)
	}
}

func TestApplyConfigMapsEveryParam(t *testing.T) {
	cb, buf, ds := 8, int64(2<<20), int64(128<<10)
	off, attempts, async := false, 7, true
	cfg := ApplyAllConfig([]HintsDelta{
		{Param: "cb_nodes", CBNodes: &cb},
		{Param: "cb_buffer", CBBufferSize: &buf},
		{Param: "sieve_buffer", DSBufferSize: &ds},
		{Param: "data_sieving", DataSieving: &off},
		{Param: "retry", RetryMaxAttempts: &attempts},
		{Param: "async_io", AsyncIO: &async},
	}, enzo.Tiny())
	if cfg.CBNodes != 8 || cfg.CBBufferSize != 2<<20 || cfg.SieveBufferSize != 128<<10 {
		t.Fatalf("buffer knobs wrong: %+v", cfg)
	}
	if cfg.DataSieving != -1 {
		t.Fatalf("DataSieving = %d, want -1 (forced off)", cfg.DataSieving)
	}
	if !cfg.IORetry.Enabled || cfg.IORetry.MaxAttempts != 7 {
		t.Fatalf("retry not armed: %+v", cfg.IORetry)
	}
	if !cfg.AsyncIO {
		t.Fatal("AsyncIO not applied")
	}
}

// TestAutoTuneIdempotentBitIdentical is the fixed-point check: autotuning
// an already-tuned configuration must apply no deltas, and the run it
// produces must be bit-identical (same virtual makespan to the last bit)
// to running the tuned config directly. Healthy config only — fault-driven
// retry escalation is deliberately not a fixed point.
func TestAutoTuneIdempotentBitIdentical(t *testing.T) {
	cfg := enzo.Tiny()
	mach := machine.ChibaCity()
	backend := enzo.BackendMPIIO

	tuned, deltas, rep, err := AutoTune(mach, "pvfs", 4, cfg, backend)
	if err != nil {
		t.Fatal(err)
	}
	if rep == nil {
		t.Fatal("no probe report returned")
	}
	retuned, deltas2, _, err := AutoTune(mach, "pvfs", 4, tuned, backend)
	if err != nil {
		t.Fatal(err)
	}
	if len(deltas2) != 0 {
		t.Fatalf("tuning the tuned config applied %d deltas: %+v (first pass: %+v)", len(deltas2), deltas2, deltas)
	}
	if retuned != tuned {
		t.Fatalf("tuning the tuned config changed it:\n  %+v\n  %+v", tuned, retuned)
	}

	a, err := enzo.Run(enzo.RunSpec{Machine: mach, FS: "pvfs", Procs: 4, Config: tuned, Backend: backend})
	if err != nil {
		t.Fatal(err)
	}
	b, err := enzo.Run(enzo.RunSpec{Machine: mach, FS: "pvfs", Procs: 4, Config: retuned, Backend: backend})
	if err != nil {
		t.Fatal(err)
	}
	if a.Makespan != b.Makespan {
		t.Fatalf("tuned and retuned runs diverged: %.12f != %.12f", a.Makespan, b.Makespan)
	}
}

// TestAutoTuneKeepsOnlyDeltasTheProbeConfirms pins the verification pass
// on the case that motivated it: more aggregators than the exchange can pay
// for. On the SP-2 (2 aggregators for np=8) against 8 PVFS data servers the
// cb-mismatch rule proposes cb_nodes 2→8, but every array of the AMR64
// probe fits one MinFDSize file domain, so the probe reruns to the same
// I/O time to the last bit: it cannot see the hint. At full size the sparse
// two-phase exchange makes each extra aggregator an extra message per rank
// and collective, and the change is worth ±0.2% of the I/O time — its sign
// depends on details as small as the direction of the offset allgather.
// AutoTune must leave out what it could not measure (Suggest may still
// advise it), so the tuned configuration is the default one.
func TestAutoTuneKeepsOnlyDeltasTheProbeConfirms(t *testing.T) {
	if testing.Short() {
		t.Skip("AMR64 probe runs; skipped in -short mode")
	}
	cfg := enzo.AMR64()
	tuned, deltas, rep, err := AutoTune(machine.SP2(), "pvfs", 8, cfg, enzo.BackendMPIIO)
	if err != nil {
		t.Fatal(err)
	}
	advised := false
	for _, d := range Suggest(rep) {
		advised = advised || d.Param == "cb_nodes"
	}
	if !advised {
		t.Fatal("the probe's report no longer advises cb_nodes: the case this test pins is gone")
	}
	if len(deltas) != 0 || tuned != cfg {
		t.Fatalf("AutoTune applied deltas the probe could not confirm: %+v", deltas)
	}
}
