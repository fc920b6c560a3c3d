package enzo

import (
	"bytes"
	"fmt"
	"testing"

	"repro/internal/obs"
	"repro/internal/pfs"
)

// snapshotRun executes RunOnce and returns the result plus the final file
// system contents.
func snapshotRun(t *testing.T, fsKind string, np int, cfg Config, backend Backend) (*Result, map[string][]byte) {
	t.Helper()
	var fs pfs.FileSystem
	res, err := Run(RunSpec{Machine: testMachineCfg(), FS: fsKind, Procs: np, Config: cfg, Backend: backend,
		Wrap: func(inner pfs.FileSystem) pfs.FileSystem {
			fs = inner
			return inner
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	return res, fs.Snapshot()
}

func compareSnapshots(t *testing.T, label string, want, got map[string][]byte) {
	t.Helper()
	if len(want) != len(got) {
		t.Fatalf("%s: file sets differ: %d vs %d files", label, len(want), len(got))
	}
	for name, data := range want {
		other, ok := got[name]
		if !ok {
			t.Fatalf("%s: file %q missing", label, name)
		}
		if !bytes.Equal(data, other) {
			t.Fatalf("%s: file %q differs (%d vs %d bytes)", label, name, len(data), len(other))
		}
	}
}

// TestAsyncFilesBitIdenticalToSync: the write-behind pipeline defers only
// the waits, never the bytes — every backend × file system × codec combo
// must produce exactly the files of the synchronous run, and the restart
// must verify.
func TestAsyncFilesBitIdenticalToSync(t *testing.T) {
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
					if asyncRes.ExposedWrite <= 0 {
						t.Fatal("async run recorded no exposed write time")
					}
					if syncRes.ExposedWrite != 0 || syncRes.HiddenWrite != 0 {
						t.Fatal("sync run must not record async dump accounting")
					}
				})
			}
		}
	}
}

// TestAsyncHidesIOUnderCompute: with enough compute per cell to cover the
// dump, most of the device time must hide behind the overlapped step.
func TestAsyncHidesIOUnderCompute(t *testing.T) {
	cfg := tinyCfg()
	cfg.FlopsPerCell = 40000 // compute window well above the Tiny dump time
	cfg.AsyncIO = true
	res, err := RunOnce(testMachineCfg(), "pvfs", 4, cfg, BackendMPIIO)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Verified {
		t.Fatal("async run not verified")
	}
	if res.HiddenWrite <= 0 {
		t.Fatal("no write time hidden despite compute >> I/O")
	}
	if f := res.HiddenFraction(); f < 0.5 {
		t.Fatalf("hidden fraction %.2f, want >= 0.5 with compute >> I/O", f)
	}
}

// TestAsyncHDF4StaysSynchronous: the HDF4 baseline ignores AsyncIO.
func TestAsyncHDF4StaysSynchronous(t *testing.T) {
	cfg := tinyCfg()
	cfg.AsyncIO = true
	res, err := RunOnce(testMachineCfg(), "xfs", 4, cfg, BackendHDF4)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Verified {
		t.Fatal("hdf4 run not verified")
	}
	if res.ExposedWrite != 0 || res.HiddenWrite != 0 {
		t.Fatal("hdf4 must not record async dump accounting")
	}
}

// TestAsyncTracedMatchesUntraced: attaching the tracer to an async run must
// not move a single clock.
func TestAsyncTracedMatchesUntraced(t *testing.T) {
	cfg := tinyCfg()
	cfg.AsyncIO = true
	for _, backend := range []Backend{BackendMPIIO, BackendHDF5} {
		plain, err := RunOnce(testMachineCfg(), "pvfs", 4, cfg, backend)
		if err != nil {
			t.Fatal(err)
		}
		tr := obs.NewTracer()
		traced, err := RunOnceTraced(testMachineCfg(), "pvfs", 4, cfg, backend, tr)
		if err != nil {
			t.Fatal(err)
		}
		if plain.Makespan != traced.Makespan {
			t.Fatalf("%v: makespan %g traced vs %g untraced", backend, traced.Makespan, plain.Makespan)
		}
		if len(plain.Phases) != len(traced.Phases) {
			t.Fatalf("%v: phase count differs", backend)
		}
		for i := range plain.Phases {
			if plain.Phases[i] != traced.Phases[i] {
				t.Fatalf("%v: phase %q: %g traced vs %g untraced", backend,
					plain.Phases[i].Name, traced.Phases[i].Seconds, plain.Phases[i].Seconds)
			}
		}
		if plain.ExposedWrite != traced.ExposedWrite || plain.HiddenWrite != traced.HiddenWrite {
			t.Fatalf("%v: async accounting differs under tracing", backend)
		}
		if len(tr.Spans()) == 0 {
			t.Fatalf("%v: tracer recorded nothing", backend)
		}
	}
}

// TestAsyncMultiDumpDrainsBetweenDumps: several write-behind dumps in one
// run must each settle before the next starts and still verify.
func TestAsyncMultiDump(t *testing.T) {
	cfg := tinyCfg()
	cfg.Dumps = 3
	cfg.AsyncIO = true
	res, err := RunOnce(testMachineCfg(), "pvfs", 4, cfg, BackendMPIIO)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Verified {
		t.Fatal("multi-dump async run not verified")
	}
}

// TestCollectiveWriteCBNodesInvariant: the number of collective-buffering
// aggregators is a performance knob, not a correctness one — every
// cb_nodes in 1..np must leave identical bytes in every file, with and
// without a codec.
func TestCollectiveWriteCBNodesInvariant(t *testing.T) {
	const np = 4
	for _, codec := range []string{"", "lzss"} {
		codec := codec
		t.Run("codec="+codec, func(t *testing.T) {
			var want map[string][]byte
			for cb := 1; cb <= np; cb++ {
				cfg := tinyCfg()
				cfg.Codec = codec
				cfg.CBNodes = cb
				res, files := snapshotRun(t, "pvfs", np, cfg, BackendMPIIOCB)
				if !res.Verified {
					t.Fatalf("cb_nodes=%d: not verified", cb)
				}
				if want == nil {
					want = files
					continue
				}
				compareSnapshots(t, fmt.Sprintf("cb_nodes=%d vs 1", cb), want, files)
			}
		})
	}
}
