package enzo

import (
	"errors"
	"fmt"
	"testing"

	"repro/internal/faultfs"
	"repro/internal/obs"
	"repro/internal/pfs"
)

// TestConfigNormalize: normalize mirrors (*mpiio.Hints).normalize — every
// out-of-range knob clamps to a sane value instead of misbehaving at run
// time.
func TestConfigNormalize(t *testing.T) {
	cases := []struct {
		name     string
		in       Config
		nsrv     int
		gens     int
		redumps  int
		replicas int
	}{
		{"zero-value", Config{}, 8, 0, 0, 1},
		{"negative-generations", Config{Generations: -3}, 8, 0, 0, 1},
		{"valid-generations", Config{Generations: 2}, 8, 2, 0, 1},
		{"negative-redumps", Config{MaxRedumps: -1}, 8, 0, 0, 1},
		{"valid-redumps", Config{MaxRedumps: 5}, 8, 0, 5, 1},
		{"zero-replicas", Config{Replicas: 0}, 8, 0, 0, 1},
		{"negative-replicas", Config{Replicas: -2}, 8, 0, 0, 1},
		{"replicas-above-servers", Config{Replicas: 12}, 8, 0, 0, 8},
		{"replicas-in-range", Config{Replicas: 3}, 8, 0, 0, 3},
		{"no-data-servers", Config{Replicas: 12}, 0, 0, 0, 12},
		{"all-at-once", Config{Generations: -1, MaxRedumps: -9, Replicas: 99}, 4, 0, 0, 4},
	}
	for _, tc := range cases {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			c := tc.in
			c.normalize(tc.nsrv)
			if c.Generations != tc.gens {
				t.Errorf("Generations = %d, want %d", c.Generations, tc.gens)
			}
			if c.MaxRedumps != tc.redumps {
				t.Errorf("MaxRedumps = %d, want %d", c.MaxRedumps, tc.redumps)
			}
			if c.Replicas != tc.replicas {
				t.Errorf("Replicas = %d, want %d", c.Replicas, tc.replicas)
			}
		})
	}
}

// TestCAStoreRestartBitIdentical: every backend × file system × codec combo
// must restore bit-identical state through the content-addressed path, and
// with two dumps of unchanged state the second generation must dedup
// against the first (physical < logical, deduped > 0).
func TestCAStoreRestartBitIdentical(t *testing.T) {
	for _, backend := range []Backend{BackendMPIIO, BackendMPIIOCB, BackendHDF5} {
		for _, fsKind := range []string{"xfs", "gpfs", "pvfs", "local"} {
			for _, codec := range []string{"", "lzss"} {
				backend, fsKind, codec := backend, fsKind, codec
				t.Run(fmt.Sprintf("%v_%s_codec=%s", backend, fsKind, codec), func(t *testing.T) {
					cfg := Tiny()
					cfg.Codec = codec
					cfg.CAStore = true
					cfg.Dumps = 2
					res, err := RunOnce(faultMachCfg(), fsKind, 4, cfg, backend)
					if err != nil {
						t.Fatal(err)
					}
					if !res.Verified {
						t.Fatal("castore restart did not verify")
					}
					if res.CASChunkPuts == 0 || res.CASLogicalBytes == 0 {
						t.Fatalf("no castore traffic recorded: %+v", res)
					}
					if res.CASChunkHits == 0 || res.CASDedupedBytes == 0 {
						t.Fatalf("second dump of unchanged state did not dedup: puts=%d hits=%d deduped=%d",
							res.CASChunkPuts, res.CASChunkHits, res.CASDedupedBytes)
					}
					if res.CASPhysicalBytes >= res.CASLogicalBytes {
						t.Fatalf("physical bytes %d not below logical %d at depth 2",
							res.CASPhysicalBytes, res.CASLogicalBytes)
					}
				})
			}
		}
	}
}

// TestCAStoreComposesWithAsyncAndScrub: the castore dump path must ride the
// write-behind pipeline (deferred chunk writes settle in the drain) and the
// scrub read-back must verify generations through the store.
func TestCAStoreComposesWithAsyncAndScrub(t *testing.T) {
	for _, tc := range []struct {
		name  string
		async bool
		scrub bool
	}{
		{"async", true, false},
		{"scrub", false, true},
		{"async+scrub", true, true},
	} {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			cfg := Tiny()
			cfg.CAStore = true
			cfg.Dumps = 2
			cfg.AsyncIO = tc.async
			cfg.ScrubOnDump = tc.scrub
			res, err := RunOnce(faultMachCfg(), "pvfs", 4, cfg, BackendMPIIO)
			if err != nil {
				t.Fatal(err)
			}
			if !res.Verified {
				t.Fatal("castore run did not verify")
			}
			if tc.async && res.HiddenWrite == 0 {
				t.Fatal("async castore dump hid no device time")
			}
			if tc.scrub && res.ScrubFailures != 0 {
				t.Fatalf("healthy castore run recorded %d scrub failures", res.ScrubFailures)
			}
			if res.CASDedupedBytes == 0 {
				t.Fatal("no dedup across generations")
			}
		})
	}
}

// TestCAStorePhysicalBelowPlain: at retention depth >= 2 the deduped store
// must move strictly fewer bytes to the devices than the plain dump path
// writing every generation in full.
func TestCAStorePhysicalBelowPlain(t *testing.T) {
	cfg := Tiny()
	cfg.Dumps = 2
	plain, err := RunOnce(faultMachCfg(), "pvfs", 4, cfg, BackendMPIIO)
	if err != nil {
		t.Fatal(err)
	}
	cfg.CAStore = true
	cas, err := RunOnce(faultMachCfg(), "pvfs", 4, cfg, BackendMPIIO)
	if err != nil {
		t.Fatal(err)
	}
	if !plain.Verified || !cas.Verified {
		t.Fatalf("runs not verified: plain=%v cas=%v", plain.Verified, cas.Verified)
	}
	if cas.BytesWritten >= plain.BytesWritten {
		t.Fatalf("castore wrote %d bytes, plain wrote %d — dedup saved nothing",
			cas.BytesWritten, plain.BytesWritten)
	}
}

// TestCAStoreDeadServerFailsOver is the tentpole acceptance test: with
// chunks and manifests replicated on two data servers, a server that dies
// right as the restart begins must cost re-routed reads, not a generation
// fallback — the run still verifies bit-identically.
func TestCAStoreDeadServerFailsOver(t *testing.T) {
	pol := testRetryPolicy()
	cfg := Tiny()
	cfg.CAStore = true
	cfg.Replicas = 2
	cfg.IORetry = pol
	cfg.ScrubOnDump = true
	cfg.Dumps = 2
	cfg.Generations = 2

	// Healthy traced run pins the virtual time the restart phase begins
	// (runs are deterministic, so the faulty run follows the same timeline
	// up to the failure).
	tr := obs.NewTracer()
	healthy, err := RunOnceTraced(faultMachCfg(), "pvfs", 4, cfg, BackendMPIIO, tr)
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

	res, err := Run(RunSpec{Machine: faultMachCfg(), FS: "pvfs", Procs: 4, Config: cfg, Backend: BackendMPIIO,
		Wrap: func(fs pfs.FileSystem) pfs.FileSystem {
			fs.(pfs.StripeFaultInjector).FailDataServerAt(3, restartStart+1e-9)
			return fs
		},
	})
	if err != nil {
		t.Fatalf("restart with one dead replica server did not complete: %v (failovers=%d scrubFailures=%d)",
			err, res.CASFailovers, res.ScrubFailures)
	}
	if !res.Verified {
		t.Fatal("replicated restart did not verify after server death")
	}
	if res.RestartFallbacks != 0 {
		t.Fatalf("RestartFallbacks = %d, want 0 (reads must fail over, not fall back)", res.RestartFallbacks)
	}
	if res.CASFailovers == 0 {
		t.Fatal("no failovers recorded — the dead server was never in any read path")
	}
}

// TestSoleGenerationCorruptionSurfacesTypedError is the satellite
// regression: Generations=1 with the only generation persistently corrupted
// must end in a typed *RestartError — never a panic, and never a silent
// restart from zeroed state — under both the plain and castore dump paths.
func TestSoleGenerationCorruptionSurfacesTypedError(t *testing.T) {
	for _, tc := range []struct {
		name    string
		castore bool
		target  string
	}{
		{"plain", false, "dump00.raw"},
		{"castore", true, "cas/"},
	} {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			cfg := Tiny()
			cfg.CAStore = tc.castore
			cfg.ScrubOnDump = true
			cfg.Generations = 1
			var injector *faultfs.FS
			res, err := Run(RunSpec{Machine: faultMachCfg(), FS: "pvfs", Procs: 4, Config: cfg, Backend: BackendMPIIO,
				Wrap: func(fs pfs.FileSystem) pfs.FileSystem {
					// No MaxInject: every write to the sole generation stays
					// corrupt, so re-dumps cannot repair it.
					injector = faultfs.Wrap(fs, faultfs.Config{
						Mode: faultfs.CorruptWrite, EveryN: 3, MinBytes: 2048,
						FileSubstr: tc.target,
					})
					return injector
				},
			})
			var rerr *RestartError
			if !errors.As(err, &rerr) {
				t.Fatalf("err = %v, want *RestartError", err)
			}
			if rerr.Generations != 1 || rerr.Dumps != cfg.Dumps {
				t.Fatalf("RestartError = %+v, want Generations=1 Dumps=%d", rerr, cfg.Dumps)
			}
			if injector.Injected() == 0 {
				t.Fatal("no faults injected; test proves nothing")
			}
			if res == nil {
				t.Fatal("Result must be returned alongside the typed error")
			}
			if res.Verified {
				t.Fatal("corrupted sole generation must not verify")
			}
		})
	}
}
