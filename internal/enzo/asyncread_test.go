package enzo

import (
	"errors"
	"fmt"
	"reflect"
	"testing"

	"repro/internal/faultfs"
	"repro/internal/obs"
	"repro/internal/pfs"
)

// TestAsyncReadRestartBitIdentical: the read-ahead restart pipeline defers
// only the waits, never the bytes — every backend × file system × codec
// combo must restore state that verifies against the pre-dump snapshot and
// leave exactly the files of the synchronous run.
func TestAsyncReadRestartBitIdentical(t *testing.T) {
	for _, backend := range []Backend{BackendMPIIO, BackendMPIIOCB, BackendHDF5} {
		for _, fsKind := range []string{"xfs", "gpfs", "pvfs", "local"} {
			for _, codec := range []string{"", "lzss"} {
				backend, fsKind, codec := backend, fsKind, codec
				t.Run(fmt.Sprintf("%s-%s-%s", backend, fsKind, codec), func(t *testing.T) {
					cfg := tinyCfg()
					cfg.Codec = codec
					syncRes, syncFiles := snapshotRun(t, fsKind, 4, cfg, backend)
					cfg.AsyncIO = true
					asyncRes, asyncFiles := snapshotRun(t, fsKind, 4, cfg, backend)
					if !syncRes.Verified || !asyncRes.Verified {
						t.Fatalf("verification: sync=%v async=%v", syncRes.Verified, asyncRes.Verified)
					}
					compareSnapshots(t, "async vs sync", syncFiles, asyncFiles)
					if syncRes.ExposedRead != 0 || syncRes.HiddenRead != 0 {
						t.Fatal("sync run must not record async restart-read accounting")
					}
					if asyncRes.ExposedRead <= 0 {
						t.Fatal("async run recorded no exposed read time")
					}
				})
			}
		}
	}
}

// TestAsyncReadHidesTime: issuing every dataset's read before the first
// settle must hide real device time under the pipeline — with several
// fields and subgrids per rank the overlap is structural, not incidental.
func TestAsyncReadHidesTime(t *testing.T) {
	cfg := tinyCfg()
	cfg.AsyncIO = true
	res, err := Run(RunSpec{Machine: testMachineCfg(), FS: "pvfs", Procs: 4, Config: cfg, Backend: BackendMPIIO})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Verified {
		t.Fatal("async run not verified")
	}
	if res.HiddenRead <= 0 {
		t.Fatal("read-ahead pipeline hid no read time")
	}
}

// TestAsyncReadFasterRestart: hiding read time must shorten the restart
// phase relative to the blocking run. Local disks give each rank its own
// device, so the pipeline's earlier issues cannot queue ahead of another
// rank's critical-path read — on shared striped servers that interference
// can offset the overlap (see the read-sweep experiment).
func TestAsyncReadFasterRestart(t *testing.T) {
	restartSecs := func(async bool) float64 {
		cfg := tinyCfg()
		cfg.AsyncIO = async
		res, err := Run(RunSpec{Machine: testMachineCfg(), FS: "local", Procs: 4, Config: cfg, Backend: BackendMPIIO})
		if err != nil {
			t.Fatal(err)
		}
		if !res.Verified {
			t.Fatal("run not verified")
		}
		for _, ph := range res.Phases {
			if ph.Name == "restart" {
				return ph.Seconds
			}
		}
		t.Fatal("no restart phase")
		return 0
	}
	blocking, pipelined := restartSecs(false), restartSecs(true)
	if pipelined >= blocking {
		t.Fatalf("read-ahead restart %.6fs not below blocking %.6fs", pipelined, blocking)
	}
}

// TestAsyncReadHDF4StaysSynchronous: HDF4 has no read-ahead, so RunSpec
// asking for it is refused before the restart, and the plain HDF4 run
// records no async restart-read accounting.
func TestAsyncReadHDF4StaysSynchronous(t *testing.T) {
	cfg := tinyCfg()
	cfg.AsyncIO = true
	var se *SpecError
	res, err := Run(RunSpec{Machine: testMachineCfg(), FS: "xfs", Procs: 4, Config: cfg, Backend: BackendHDF4})
	if res != nil || !errors.As(err, &se) || se.Axis != "async" {
		t.Fatalf("hdf4 with AsyncIO: got result %v, err %v; want a *SpecError on axis async", res != nil, err)
	}
	cfg.AsyncIO = false
	res, err = Run(RunSpec{Machine: testMachineCfg(), FS: "xfs", Procs: 4, Config: cfg, Backend: BackendHDF4})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Verified {
		t.Fatal("hdf4 run not verified")
	}
	if res.ExposedRead != 0 || res.HiddenRead != 0 {
		t.Fatal("hdf4 must not record async restart-read accounting")
	}
}

// TestAsyncReadStaysBlockingUnderRetry: deferred reads carry no deadline,
// so a run with the retry policy armed must restart through the blocking
// path (which can time out and retry) and record no read-ahead accounting.
// Writes stay blocking too, so the run is its twin without AsyncIO: the
// AsyncIO × IORetry equivalence RunSpec.Validate documents.
func TestAsyncReadStaysBlockingUnderRetry(t *testing.T) {
	cfg := tinyCfg()
	cfg.AsyncIO = true
	cfg.IORetry = testRetryPolicy()
	spec := RunSpec{Machine: faultMachCfg(), FS: "pvfs", Procs: 4, Config: cfg, Backend: BackendMPIIO}
	res, err := Run(spec)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Verified {
		t.Fatal("run not verified")
	}
	if res.ExposedRead != 0 || res.HiddenRead != 0 {
		t.Fatal("retry-armed run must not use the read-ahead pipeline")
	}
	spec.Config.AsyncIO = false
	if blocking, err := Run(spec); err != nil || !reflect.DeepEqual(res, blocking) {
		t.Fatalf("AsyncIO under an armed retry policy changed the run (%v):\n got %+v\nwant %+v", err, res, blocking)
	}
}

// TestAsyncScrubGenerationsComposition is the phase-composition regression:
// with write-behind dumps, scrub-on-dump and multiple generations in one
// run, every generation's deferred writes must be fully drained and its
// manifest written before the scrub reads it back — any ordering hole shows
// up as a spurious scrub failure or an unverified restart on a healthy
// medium.
func TestAsyncScrubGenerationsComposition(t *testing.T) {
	for _, backend := range []Backend{BackendMPIIO, BackendHDF5} {
		for _, codec := range []string{"", "lzss"} {
			backend, codec := backend, codec
			t.Run(fmt.Sprintf("%s-codec=%s", backend, codec), func(t *testing.T) {
				cfg := tinyCfg()
				cfg.AsyncIO = true
				cfg.ScrubOnDump = true
				cfg.Dumps = 3
				cfg.Generations = 2
				cfg.Codec = codec
				res, err := Run(RunSpec{Machine: testMachineCfg(), FS: "pvfs", Procs: 4, Config: cfg, Backend: backend})
				if err != nil {
					t.Fatal(err)
				}
				if res.ScrubFailures != 0 || res.Redumps != 0 || res.RestartFallbacks != 0 {
					t.Fatalf("healthy async+scrub run recorded faults: scrub=%d redumps=%d fallbacks=%d",
						res.ScrubFailures, res.Redumps, res.RestartFallbacks)
				}
				if !res.Verified {
					t.Fatal("async+scrub+generations run did not verify")
				}
			})
		}
	}
}

// TestAsyncScrubRecoversFromCorruption: the recovery loop must compose with
// write-behind dumps — corruption injected under an async dump is caught by
// the scrub read-back and repaired by a re-dump exactly as in the
// synchronous run.
func TestAsyncScrubRecoversFromCorruption(t *testing.T) {
	cfg := Tiny()
	cfg.AsyncIO = true
	cfg.ScrubOnDump = true
	var injector *faultfs.FS
	res, err := Run(RunSpec{Machine: faultMachCfg(), FS: "pvfs", Procs: 4, Config: cfg, Backend: BackendMPIIO,
		Wrap: func(fs pfs.FileSystem) pfs.FileSystem {
			injector = faultfs.Wrap(fs, faultfs.Config{
				Mode: faultfs.CorruptWrite, EveryN: 3, MinBytes: 2048,
				FileSubstr: "dump00.raw", MaxInject: 3,
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
		t.Fatalf("scrub missed %d injected faults under async dumps", injector.Injected())
	}
	if res.Redumps == 0 {
		t.Fatal("dirty generation was not re-dumped")
	}
	if !res.Verified {
		t.Fatal("async run not verified after scrub+redump")
	}
}

// TestRestartDeadServerFallsBack is the satellite regression for the
// restart fault path: a data server that dies mid-restart must not hang or
// crash the run — with retries armed every read surfaces a typed IOError,
// the tolerant read-back absorbs it into the damaged flag, and the
// generation walk falls back and finishes (unverified, since every
// generation lives on the dead server).
func TestRestartDeadServerFallsBack(t *testing.T) {
	for _, tc := range []struct {
		backend Backend
		codec   string
	}{
		{BackendMPIIO, ""},     // raw restart path
		{BackendMPIIO, "lzss"}, // rawz restart path (segment directory + blobs)
		{BackendHDF5, ""},      // hdf5 restart path
	} {
		tc := tc
		t.Run(fmt.Sprintf("%v-codec=%s", tc.backend, tc.codec), func(t *testing.T) {
			pol := testRetryPolicy()
			cfg := Tiny()
			cfg.Codec = tc.codec
			cfg.IORetry = pol
			cfg.ScrubOnDump = true
			cfg.Dumps = 2
			cfg.Generations = 2

			// Healthy traced run pins the virtual time the restart phase
			// begins (runs are deterministic, so the faulty run follows the
			// same timeline up to the failure).
			tr := obs.NewTracer()
			healthy, err := Run(RunSpec{Machine: faultMachCfg(), FS: "pvfs", Procs: 4, Config: cfg, Backend: tc.backend, Tracer: tr})
			if err != nil {
				t.Fatal(err)
			}
			if !healthy.Verified {
				t.Fatal("healthy reference run not verified")
			}
			restartStart := -1.0
			for _, sp := range tr.Spans() {
				if sp.Name == "phase:restart" && (restartStart < 0 || sp.Start < restartStart) {
					restartStart = sp.Start
				}
			}
			if restartStart < 0 {
				t.Fatal("no restart phase span in healthy run")
			}

			// Server 3, not 0: rank 0's plain-fs manifest file lands on
			// stripe 0 and must stay readable — the dump payload is striped
			// over all servers and cannot avoid the dead one.
			res, err := Run(RunSpec{Machine: faultMachCfg(), FS: "pvfs", Procs: 4, Config: cfg, Backend: tc.backend,
				Wrap: func(fs pfs.FileSystem) pfs.FileSystem {
					fs.(pfs.StripeFaultInjector).FailDataServerAt(3, restartStart+1e-9)
					return fs
				},
			})
			var rerr *RestartError
			if !errors.As(err, &rerr) {
				t.Fatalf("restart against dead data server: err = %v, want *RestartError", err)
			}
			if rerr.Fallbacks != 1 || rerr.Dumps != cfg.Dumps {
				t.Fatalf("RestartError = %+v, want Fallbacks=1 Dumps=%d", rerr, cfg.Dumps)
			}
			if res.RestartFallbacks != 1 {
				t.Fatalf("RestartFallbacks = %d, want 1 (newest generation unreadable)", res.RestartFallbacks)
			}
			if res.Verified {
				t.Fatal("restart verified despite every generation on a dead server")
			}
		})
	}
}
