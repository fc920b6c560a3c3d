package enzo

import (
	"fmt"
	"testing"

	"repro/internal/compress"
	"repro/internal/machine"
	"repro/internal/mpi"
	"repro/internal/obs"
	"repro/internal/sim"
)

// TestCompressedRunsVerifyEverywhere: the transparent-compression truth
// test. Every compressing backend, on every file-system kind, with every
// registered codec, must round-trip the full write/restart cycle with the
// decompressed state byte-identical to the pre-dump state (Verified uses
// FNV content hashes of every field array and particle set).
func TestCompressedRunsVerifyEverywhere(t *testing.T) {
	for _, backend := range []Backend{BackendMPIIO, BackendMPIIOCB, BackendHDF5} {
		for _, fsKind := range []string{"xfs", "gpfs", "pvfs", "local"} {
			for _, codec := range compress.Names() {
				if !compress.Active(codec) {
					continue
				}
				backend, fsKind, codec := backend, fsKind, codec
				t.Run(fmt.Sprintf("%s-%s-%s", backend, fsKind, codec), func(t *testing.T) {
					cfg := tinyCfg()
					cfg.Codec = codec
					res, err := Run(RunSpec{Machine: testMachineCfg(), FS: fsKind, Procs: 4, Config: cfg, Backend: backend})
					if err != nil {
						t.Fatal(err)
					}
					if !res.Verified {
						t.Fatal("compressed restart state did not match pre-dump state")
					}
					if res.Codec != codec {
						t.Fatalf("result codec %q, want %q", res.Codec, codec)
					}
				})
			}
		}
	}
}

// TestCompressedContentMatchesUncompressed proves the compressed dump
// decodes to exactly the logical data an uncompressed run produces: the
// decomposition-independent content hash of the restart-read state must be
// identical between a codec run and a codec-less run of the same problem.
func TestCompressedContentMatchesUncompressed(t *testing.T) {
	hashAfterRestart := func(backend Backend, codec string) ContentHash {
		eng := sim.NewEngine()
		mach := machine.New(testMachineCfg())
		fs, err := MakeFS("xfs", mach)
		if err != nil {
			t.Fatal(err)
		}
		cfg := tinyCfg()
		cfg.Codec = codec
		res := &Result{}
		var h ContentHash
		mpi.NewWorld(eng, mach, 4, func(r *mpi.Rank) {
			s := newSim(r, fs, backend, cfg, res)
			s.setup()
			s.readInitial()
			s.evolve()
			s.writeDump(0)
			s.clearState()
			s.readRestart(0)
			if hh := s.contentHash(); r.Rank() == 0 {
				h = hh
			}
		})
		if err := eng.Run(); err != nil {
			t.Fatal(err)
		}
		return h
	}
	for _, backend := range []Backend{BackendMPIIO, BackendMPIIOCB, BackendHDF5} {
		backend := backend
		t.Run(backend.String(), func(t *testing.T) {
			plain := hashAfterRestart(backend, "none")
			for _, codec := range []string{"rle", "delta", "lzss"} {
				if got := hashAfterRestart(backend, codec); !got.Equal(plain) {
					t.Fatalf("%s: restart content differs from uncompressed run", codec)
				}
			}
		})
	}
}

// TestCompressedRunsShrinkPhysicalWrites: the smooth baryon fields must
// actually compress — a codec run's physical write volume has to come in
// clearly under the uncompressed run's.
func TestCompressedRunsShrinkPhysicalWrites(t *testing.T) {
	base, err := Run(RunSpec{Machine: testMachineCfg(), FS: "xfs", Procs: 4, Config: tinyCfg(), Backend: BackendMPIIO})
	if err != nil {
		t.Fatal(err)
	}
	for _, codec := range []string{"delta", "lzss"} {
		cfg := tinyCfg()
		cfg.Codec = codec
		res, err := Run(RunSpec{Machine: testMachineCfg(), FS: "xfs", Procs: 4, Config: cfg, Backend: BackendMPIIO})
		if err != nil {
			t.Fatal(err)
		}
		if res.BytesWritten >= base.BytesWritten*3/4 {
			t.Fatalf("%s: wrote %d bytes, uncompressed run wrote %d — no real compression",
				codec, res.BytesWritten, base.BytesWritten)
		}
	}
}

// TestCompressedTracedMatchesUntraced extends the zero-perturbation
// guarantee to the codec cost model: tracing a compressed run must not
// move the clock.
func TestCompressedTracedMatchesUntraced(t *testing.T) {
	for _, backend := range []Backend{BackendMPIIO, BackendHDF5} {
		backend := backend
		t.Run(backend.String(), func(t *testing.T) {
			cfg := tinyCfg()
			cfg.Codec = "lzss"
			plain, err := Run(RunSpec{Machine: testMachineCfg(), FS: "pvfs", Procs: 4, Config: cfg, Backend: backend})
			if err != nil {
				t.Fatal(err)
			}
			tr := obs.NewTracer()
			traced, err := Run(RunSpec{Machine: testMachineCfg(), FS: "pvfs", Procs: 4, Config: cfg, Backend: backend, Tracer: tr})
			if err != nil {
				t.Fatal(err)
			}
			if plain.Makespan != traced.Makespan {
				t.Fatalf("tracing moved the clock: %.9f vs %.9f", plain.Makespan, traced.Makespan)
			}
			stats := tr.CodecStats()
			if len(stats) == 0 {
				t.Fatal("traced compressed run recorded no codec counters")
			}
			var logical, physical int64
			for _, cs := range stats {
				logical += cs.CompressLogical
				physical += cs.CompressStored
			}
			if logical <= physical || physical <= 0 {
				t.Fatalf("codec counters implausible: logical=%d physical=%d", logical, physical)
			}
		})
	}
}

// TestCodecCostModelChargesTime: a slower codec CPU — a rank compressor
// charging a slower cost model — must yield a longer makespan, and an
// effectively infinite one must cost (almost) nothing relative to it.
func TestCodecCostModelChargesTime(t *testing.T) {
	makespan := func(bps float64) float64 {
		cfg := tinyCfg()
		cfg.Codec = "lzss"
		spec := RunSpec{Machine: testMachineCfg(), FS: "xfs", Procs: 4, Config: cfg, Backend: BackendMPIIO}
		res, err := run(spec, func(s *Sim) {
			s.z = compress.NewCompressor(s.z.Codec(), compress.CostModel{CompressBps: bps, DecompressBps: bps})
		})
		if err != nil {
			t.Fatal(err)
		}
		return res.Makespan
	}
	slow, fast := makespan(1e6), makespan(1e12)
	if slow <= fast {
		t.Fatalf("slow codec CPU (%.4fs) should beat fast (%.4fs) on makespan", slow, fast)
	}
}

// TestUnknownCodecRejected: config validation must name the known codecs.
func TestUnknownCodecRejected(t *testing.T) {
	cfg := tinyCfg()
	cfg.Codec = "zstd"
	if _, err := Run(RunSpec{Machine: testMachineCfg(), FS: "xfs", Procs: 4, Config: cfg, Backend: BackendMPIIO}); err == nil {
		t.Fatal("unknown codec accepted")
	}
}
