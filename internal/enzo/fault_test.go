package enzo

import (
	"errors"
	"fmt"
	"math"
	"reflect"
	"testing"

	"repro/internal/faultfs"
	"repro/internal/machine"
	"repro/internal/mpiio"
	"repro/internal/obs"
	"repro/internal/pfs"
)

// testRetryPolicy is an aggressive policy sized for the Tiny problem:
// healthy service fits the first timeout, a 10x straggler needs several
// doublings.
func testRetryPolicy() mpiio.RetryPolicy {
	return mpiio.RetryPolicy{
		Enabled: true, Timeout: 2e-3, MaxAttempts: 20,
		Backoff: 1e-3, Multiplier: 2, JitterFrac: 0.25,
	}
}

// faultMachCfg is the small 4-node machine used by the fault-injection
// tests (mirrors testMachineCfg with fewer nodes for speed).
func faultMachCfg() machine.Config {
	return machine.Config{
		Name: "t", Nodes: 8, ProcsPerNode: 1,
		WireLatency: 20e-6, LinkBW: 150e6, SendOverhead: 2e-6, RecvOverhead: 2e-6,
		MemLatency: 1e-6, MemCopyBW: 800e6, ComputeRate: 1e9,
	}
}

// TestScrubDetectsCorruptionAndRecovers is the tentpole end-to-end test:
// corrupt a dump on the way to the store, require the read-back scrub to
// catch it, re-dump, and finish with a bit-identical verified restart.
// MinBytes 2048 keeps the injection out of small metadata blocks (HDF5
// superblock/headers), targeting checkpoint payload like real media
// corruption in large data extents.
func TestScrubDetectsCorruptionAndRecovers(t *testing.T) {
	cases := []struct {
		backend Backend
		fsKind  string
		codec   string
		target  string
	}{
		{BackendMPIIO, "pvfs", "", "dump00.raw"},
		{BackendMPIIO, "xfs", "lzss", "dump00.raw"},
		{BackendHDF5, "pvfs", "", "dump00.h5"},
		{BackendHDF5, "xfs", "lzss", "dump00.h5"},
	}
	for _, tc := range cases {
		tc := tc
		name := fmt.Sprintf("%v_%s_codec=%s", tc.backend, tc.fsKind, tc.codec)
		t.Run(name, func(t *testing.T) {
			cfg := Tiny()
			cfg.Codec = tc.codec
			cfg.ScrubOnDump = true
			var injector *faultfs.FS
			res, err := Run(RunSpec{Machine: faultMachCfg(), FS: tc.fsKind, Procs: 4, Config: cfg, Backend: tc.backend,
				Wrap: func(fs pfs.FileSystem) pfs.FileSystem {
					injector = faultfs.Wrap(fs, faultfs.Config{
						Mode: faultfs.CorruptWrite, EveryN: 3, MinBytes: 2048,
						FileSubstr: tc.target, MaxInject: 3,
					})
					return injector
				},
			})
			if err != nil {
				t.Fatal(err)
			}
			if injector.Injected() == 0 {
				t.Fatal("no faults injected; test proves nothing")
			}
			if res.ScrubFailures == 0 {
				t.Fatalf("scrub missed %d injected faults", injector.Injected())
			}
			if res.Redumps == 0 {
				t.Fatal("dirty generation was not re-dumped")
			}
			if !res.Verified {
				t.Fatalf("restart not verified despite scrub+redump (failures=%d redumps=%d)",
					res.ScrubFailures, res.Redumps)
			}
		})
	}
}

// TestGenerationFallback makes the newest generation permanently dirty
// (unbounded corruption, one allowed re-dump) and requires the restart to
// fall back to the older clean generation.
func TestGenerationFallback(t *testing.T) {
	cfg := Tiny()
	cfg.Dumps = 2
	cfg.ScrubOnDump = true
	cfg.Generations = 2
	cfg.MaxRedumps = 1
	res, err := Run(RunSpec{Machine: faultMachCfg(), FS: "xfs", Procs: 4, Config: cfg, Backend: BackendMPIIO,
		Wrap: func(fs pfs.FileSystem) pfs.FileSystem {
			return faultfs.Wrap(fs, faultfs.Config{
				Mode: faultfs.CorruptWrite, EveryN: 1, MinBytes: 2048,
				FileSubstr: "dump01.raw",
			})
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.RestartFallbacks != 1 {
		t.Fatalf("RestartFallbacks = %d, want 1", res.RestartFallbacks)
	}
	if res.ScrubFailures < 2 {
		t.Fatalf("ScrubFailures = %d, want >= 2 (scrub + failed re-dump)", res.ScrubFailures)
	}
	if !res.Verified {
		t.Fatal("fallback generation did not verify")
	}
}

// TestStaleReadScrub drives the recovery loop with a stale-read medium: the
// first re-dump's read-back is served the corrupted previous generation, so
// recovery needs a second round before the scrub comes back clean.
func TestStaleReadScrub(t *testing.T) {
	cfg := Tiny()
	cfg.ScrubOnDump = true
	cfg.MaxRedumps = 3
	res, err := Run(RunSpec{Machine: faultMachCfg(), FS: "xfs", Procs: 4, Config: cfg, Backend: BackendMPIIO,
		Wrap: func(fs pfs.FileSystem) pfs.FileSystem {
			// Inner wrapper: every re-dump truncation turns the previous
			// (corrupted) generation into stale bytes served on re-read.
			stale := faultfs.Wrap(fs, faultfs.Config{
				Mode: faultfs.StaleRead, EveryN: 1, FileSubstr: "dump00.raw",
			})
			// Outer wrapper: corrupt exactly one payload write of gen 1.
			return faultfs.Wrap(stale, faultfs.Config{
				Mode: faultfs.CorruptWrite, EveryN: 1, MinBytes: 2048,
				FileSubstr: "dump00.raw", MaxInject: 1,
			})
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.ScrubFailures < 2 {
		t.Fatalf("ScrubFailures = %d, want >= 2 (corruption, then stale re-read)", res.ScrubFailures)
	}
	if res.Redumps < 2 {
		t.Fatalf("Redumps = %d, want >= 2", res.Redumps)
	}
	if !res.Verified {
		t.Fatal("restart not verified after stale-read recovery")
	}
}

// TestHDF4StaleReadScrubEndsTyped runs the stale-read medium under HDF4,
// whose per-grid containers a stale re-read can serve with an SD descriptor
// of the previous generation: the SD lookup that then fails must count as a
// damaged read-back, like a CRC mismatch on the other backends, so the run
// ends verified or with a typed *RestartError — never in a rank's panic.
func TestHDF4StaleReadScrubEndsTyped(t *testing.T) {
	for _, tc := range []struct {
		name string
		cfg  Config
		np   int
	}{
		{"Tiny/np4", Tiny(), 4},
		{"AMR64/np8", AMR64(), 8},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cfg := tc.cfg
			cfg.ScrubOnDump = true
			cfg.MaxRedumps = 3
			res, err := Run(RunSpec{Machine: machine.SP2(), FS: "gpfs", Procs: tc.np, Config: cfg, Backend: BackendHDF4,
				Wrap: func(fs pfs.FileSystem) pfs.FileSystem {
					stale := faultfs.Wrap(fs, faultfs.Config{Mode: faultfs.StaleRead, EveryN: 1, FileSubstr: "dump00"})
					return faultfs.Wrap(stale, faultfs.Config{
						Mode: faultfs.CorruptWrite, EveryN: 1, MinBytes: 2048, FileSubstr: "dump00", MaxInject: 1,
					})
				},
			})
			var rerr *RestartError
			if err != nil && !errors.As(err, &rerr) {
				t.Fatalf("err = %v, want a verified run or a *RestartError", err)
			}
			if res == nil {
				t.Fatal("no Result")
			}
			t.Logf("err %v, verified %v, scrub failures %d, redumps %d", err, res.Verified, res.ScrubFailures, res.Redumps)
			if err == nil && !res.Verified {
				t.Fatal("the run neither verified nor reported a *RestartError")
			}
			if res.ScrubFailures < 1 {
				t.Fatalf("ScrubFailures = %d, want >= 1: the corrupted generation went unnoticed", res.ScrubFailures)
			}
		})
	}
}

// TestStragglerRetryDeterminism degrades one PVFS data server 10x under an
// aggressive retry policy and requires the run to complete, verify, slow
// down relative to healthy, and produce bit-identical timings across runs.
func TestStragglerRetryDeterminism(t *testing.T) {
	pol := testRetryPolicy()
	run := func(straggle bool) *Result {
		cfg := Tiny()
		cfg.IORetry = pol
		res, err := Run(RunSpec{Machine: faultMachCfg(), FS: "pvfs", Procs: 4, Config: cfg, Backend: BackendMPIIO,
			Wrap: func(fs pfs.FileSystem) pfs.FileSystem {
				if straggle {
					fs.(pfs.StripeFaultInjector).DegradeDataServer(0, 10)
				}
				return fs
			},
		})
		if err != nil {
			t.Fatal(err)
		}
		if !res.Verified {
			t.Fatal("run did not verify")
		}
		return res
	}
	healthy := run(false)
	slowA := run(true)
	slowB := run(true)
	if slowA.Makespan != slowB.Makespan {
		t.Fatalf("straggler runs diverged: %.12f != %.12f", slowA.Makespan, slowB.Makespan)
	}
	if slowA.Makespan <= healthy.Makespan {
		t.Fatalf("straggler run %.6fs not slower than healthy %.6fs",
			slowA.Makespan, healthy.Makespan)
	}
}

// TestDeadServerSurfacesIOError kills a PVFS data server outright; retries
// must exhaust and the run must fail with a typed I/O error instead of
// hanging at virtual +Inf.
func TestDeadServerSurfacesIOError(t *testing.T) {
	pol := testRetryPolicy()
	pol.MaxAttempts = 3
	cfg := Tiny()
	cfg.IORetry = pol
	_, err := Run(RunSpec{Machine: faultMachCfg(), FS: "pvfs", Procs: 4, Config: cfg, Backend: BackendMPIIO,
		Wrap: func(fs pfs.FileSystem) pfs.FileSystem {
			// Server 3, not 0: rank 0's plain-fs hierarchy writes land on
			// stripe 0 and bypass the MPI-IO retry path.
			fs.(pfs.StripeFaultInjector).FailDataServerAt(3, 0)
			return fs
		},
	})
	if err == nil {
		t.Fatal("run against a dead data server succeeded")
	}
	ioe, ok := mpiio.ExtractIOError(err)
	if !ok {
		t.Fatalf("error is not a typed IOError: %v", err)
	}
	if ioe.Op != "write" {
		t.Fatalf("IOError.Op = %q, want write", ioe.Op)
	}
	if ioe.Attempts != 3 {
		t.Fatalf("IOError.Attempts = %d, want 3", ioe.Attempts)
	}
}

// TestTransparentWrappersKeepRetryArmed: a wrapper that changes nothing — a
// fault injector that never fires, with and without the tracer on top —
// must not disarm IORetry. The deadline has to reach the device through
// every layer: the dead-server run ends in the bare run's typed error (not
// err == nil at Makespan +Inf with Verified true), and a straggler run
// retries its way to the bare run's exact Result.
func TestTransparentWrappersKeepRetryArmed(t *testing.T) {
	neverFires := func(fs pfs.FileSystem) pfs.FileSystem {
		return faultfs.Wrap(fs, faultfs.Config{Mode: faultfs.CorruptWrite, FileSubstr: "no-such-file"})
	}
	run := func(cfg Config, fault func(pfs.StripeFaultInjector), wrapped, traced bool) (*Result, error) {
		spec := RunSpec{Machine: faultMachCfg(), FS: "pvfs", Procs: 4, Config: cfg, Backend: BackendMPIIO,
			Wrap: func(fs pfs.FileSystem) pfs.FileSystem {
				fault(fs.(pfs.StripeFaultInjector))
				if wrapped {
					fs = neverFires(fs)
				}
				return fs
			},
		}
		if traced {
			spec.Tracer = obs.NewTracer()
		}
		return Run(spec)
	}

	dead := Tiny()
	dead.IORetry = testRetryPolicy()
	dead.IORetry.MaxAttempts = 3
	kill := func(inj pfs.StripeFaultInjector) { inj.FailDataServerAt(3, 0) }
	_, bareErr := run(dead, kill, false, false)
	want, ok := mpiio.ExtractIOError(bareErr)
	if !ok {
		t.Fatalf("bare dead-server run: want *mpiio.IOError, got %v", bareErr)
	}
	for _, traced := range []bool{false, true} {
		res, err := run(dead, kill, true, traced)
		got, ok := mpiio.ExtractIOError(err)
		if !ok {
			t.Fatalf("traced=%v: wrapped dead-server run: want *mpiio.IOError, got err=%v result=%+v", traced, err, res)
		}
		if got.Error() != want.Error() {
			t.Errorf("traced=%v: wrapped run failed differently:\n got %v\nwant %v", traced, got, want)
		}
	}

	slow := Tiny()
	slow.IORetry = testRetryPolicy()
	straggle := func(inj pfs.StripeFaultInjector) { inj.DegradeDataServer(0, 10) }
	bare, err := run(slow, straggle, false, false)
	if err != nil {
		t.Fatal(err)
	}
	wrapped, err := run(slow, straggle, true, false)
	if err != nil {
		t.Fatal(err)
	}
	if !wrapped.Verified {
		t.Fatal("wrapped straggler run did not verify")
	}
	if !reflect.DeepEqual(wrapped, bare) {
		t.Errorf("never-firing wrapper changed the straggler run:\n got %+v\nwant %+v", wrapped, bare)
	}
}

// TestScrubCleanRunNoOverhead checks scrub accounting stays zero on a
// healthy medium and the scrub phase itself is deterministic.
func TestScrubCleanRunNoOverhead(t *testing.T) {
	cfg := Tiny()
	cfg.ScrubOnDump = true
	run := func() *Result {
		res, err := Run(RunSpec{Machine: faultMachCfg(), FS: "xfs", Procs: 4, Config: cfg, Backend: BackendMPIIO})
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	a, b := run(), run()
	if a.ScrubFailures != 0 || a.Redumps != 0 || a.RestartFallbacks != 0 {
		t.Fatalf("clean run recorded faults: %+v", a)
	}
	if !a.Verified {
		t.Fatal("clean scrubbed run did not verify")
	}
	if a.Makespan != b.Makespan {
		t.Fatalf("scrubbed runs diverged: %.12f != %.12f", a.Makespan, b.Makespan)
	}
	var scrub float64
	for _, ph := range a.Phases {
		if ph.Name == "scrub" {
			scrub = ph.Seconds
		}
	}
	if scrub <= 0 {
		t.Fatal("scrub phase cost not accounted")
	}
}

// TestAsyncDumpKeepsRetryArmed: write-behind requests carry no deadline, so
// a dump issued behind would bypass an armed retry policy — a data server
// dying mid-dump then leaves a request that never completes (Makespan +Inf,
// err == nil) where the synchronous run ends in a typed error. With IORetry
// armed the dump must therefore stay blocking, AsyncIO or not, exactly as
// restart reads already do; a healthy AsyncIO+IORetry run still verifies.
func TestAsyncDumpKeepsRetryArmed(t *testing.T) {
	run := func(async bool, failAt float64) (*Result, error) {
		cfg := Tiny()
		cfg.IORetry = testRetryPolicy()
		cfg.AsyncIO = async
		return Run(RunSpec{Machine: faultMachCfg(), FS: "pvfs", Procs: 4, Config: cfg, Backend: BackendMPIIO,
			Wrap: func(fs pfs.FileSystem) pfs.FileSystem {
				if failAt > 0 {
					fs.(pfs.StripeFaultInjector).FailDataServerAt(3, failAt)
				}
				return fs
			},
		})
	}
	phase := func(res *Result, name string) float64 {
		for _, p := range res.Phases {
			if p.Name == name {
				return p.Seconds
			}
		}
		t.Fatalf("no phase %q", name)
		return 0
	}

	healthy, err := run(true, 0)
	if err != nil {
		t.Fatal(err)
	}
	if !healthy.Verified || math.IsInf(healthy.Makespan, 0) {
		t.Fatalf("healthy AsyncIO+IORetry run: verified=%v makespan=%g", healthy.Verified, healthy.Makespan)
	}

	// The phases end at the makespan, write before restart: kill the server
	// a little way into the dump.
	dumpStart := healthy.Makespan - phase(healthy, "restart") - phase(healthy, "write")
	for _, async := range []bool{false, true} {
		res, err := run(async, dumpStart+0.05)
		ioe, ok := mpiio.ExtractIOError(err)
		if !ok {
			t.Fatalf("async=%v: want a typed *mpiio.IOError, got err=%v result=%+v", async, err, res)
		}
		if ioe.Op != "write" {
			t.Fatalf("async=%v: IOError.Op = %q, want write", async, ioe.Op)
		}
	}
}
