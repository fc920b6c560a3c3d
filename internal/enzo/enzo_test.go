package enzo

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"strings"
	"testing"

	"repro/internal/amr"
	"repro/internal/machine"
	"repro/internal/mpi"
	"repro/internal/sim"
)

func tinyCfg() Config {
	c := Tiny()
	return c
}

func testMachineCfg() machine.Config {
	return machine.Config{
		Name: "t", Nodes: 16, ProcsPerNode: 1,
		WireLatency: 20e-6, LinkBW: 150e6, SendOverhead: 2e-6, RecvOverhead: 2e-6,
		MemLatency: 1e-6, MemCopyBW: 800e6, ComputeRate: 1e9,
	}
}

func TestRunOnceAllBackendsAllFilesystemsVerify(t *testing.T) {
	for _, backend := range []Backend{BackendHDF4, BackendMPIIO, BackendHDF5} {
		for _, fsKind := range []string{"xfs", "gpfs", "pvfs", "local"} {
			backend, fsKind := backend, fsKind
			t.Run(fmt.Sprintf("%s-%s", backend, fsKind), func(t *testing.T) {
				res, err := Run(RunSpec{Machine: testMachineCfg(), FS: fsKind, Procs: 4, Config: tinyCfg(), Backend: backend})
				if err != nil {
					t.Fatal(err)
				}
				if !res.Verified {
					t.Fatal("restart state did not match pre-dump state")
				}
				if res.ReadTime() <= 0 || res.WriteTime() <= 0 || res.RestartTime() <= 0 {
					t.Fatalf("phases missing: %+v", res.Phases)
				}
				if res.BytesWritten <= 0 || res.BytesRead <= 0 {
					t.Fatalf("no I/O accounted: read=%d written=%d", res.BytesRead, res.BytesWritten)
				}
				if res.Grids < 2 {
					t.Fatalf("hierarchy too small: %d grids", res.Grids)
				}
			})
		}
	}
}

func TestRunOnceVariousProcCounts(t *testing.T) {
	for _, np := range []int{1, 2, 3, 5, 8} {
		np := np
		t.Run(fmt.Sprintf("np%d", np), func(t *testing.T) {
			for _, backend := range []Backend{BackendHDF4, BackendMPIIO, BackendHDF5} {
				res, err := Run(RunSpec{Machine: testMachineCfg(), FS: "xfs", Procs: np, Config: tinyCfg(), Backend: backend})
				if err != nil {
					t.Fatalf("%v: %v", backend, err)
				}
				if !res.Verified {
					t.Fatalf("%v with %d procs: not verified", backend, np)
				}
			}
		})
	}
}

func TestRunDeterministic(t *testing.T) {
	run := func() *Result {
		res, err := Run(RunSpec{Machine: testMachineCfg(), FS: "gpfs", Procs: 4, Config: tinyCfg(), Backend: BackendMPIIO})
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	a, b := run(), run()
	if len(a.Phases) != len(b.Phases) {
		t.Fatal("phase count differs between runs")
	}
	for i := range a.Phases {
		if a.Phases[i] != b.Phases[i] {
			t.Fatalf("phase %q: %g vs %g", a.Phases[i].Name, a.Phases[i].Seconds, b.Phases[i].Seconds)
		}
	}
	if a.BytesRead != b.BytesRead || a.BytesWritten != b.BytesWritten {
		t.Fatal("byte accounting differs between runs")
	}
}

func TestWriteVolumeMatchesHierarchy(t *testing.T) {
	// The dump must write at least the full hierarchy footprint (plus
	// metadata overheads, which are small).
	res, err := Run(RunSpec{Machine: testMachineCfg(), FS: "xfs", Procs: 2, Config: tinyCfg(), Backend: BackendMPIIO})
	if err != nil {
		t.Fatal(err)
	}
	h := amr.BuildHierarchy(tinyCfg().Dims, tinyCfg().NParticles, tinyCfg().PreRefine,
		tinyCfg().Threshold, tinyCfg().Seed)
	want := h.TotalBytes()
	if res.BytesWritten < want {
		t.Fatalf("wrote %d bytes, hierarchy is %d", res.BytesWritten, want)
	}
	if res.BytesWritten > want*3/2+1<<20 {
		t.Fatalf("wrote %d bytes for a %d-byte hierarchy: too much overhead", res.BytesWritten, want)
	}
}

func TestMultipleDumps(t *testing.T) {
	cfg := tinyCfg()
	cfg.Dumps = 3
	res, err := Run(RunSpec{Machine: testMachineCfg(), FS: "xfs", Procs: 4, Config: cfg, Backend: BackendMPIIO})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Verified {
		t.Fatal("multi-dump run not verified")
	}
	single, err := Run(RunSpec{Machine: testMachineCfg(), FS: "xfs", Procs: 4, Config: tinyCfg(), Backend: BackendMPIIO})
	if err != nil {
		t.Fatal(err)
	}
	if res.WriteTime() <= 2*single.WriteTime() {
		t.Fatalf("3 dumps (%.4fs) should cost ~3x one dump (%.4fs)", res.WriteTime(), single.WriteTime())
	}
}

func TestBackendByName(t *testing.T) {
	for _, name := range []string{"hdf4", "mpiio", "hdf5"} {
		b, err := BackendByName(name)
		if err != nil || b.String() != name {
			t.Fatalf("BackendByName(%q) = %v, %v", name, b, err)
		}
	}
	if _, err := BackendByName("netcdf"); err == nil {
		t.Fatal("unknown backend accepted")
	}
	if Backend(99).String() != "unknown" {
		t.Fatal("bad String")
	}
}

func TestMakeFSUnknown(t *testing.T) {
	if _, err := MakeFS("zfs", machine.New(testMachineCfg())); err == nil {
		t.Fatal("unknown fs accepted")
	}
}

func TestResultPhaseAccessors(t *testing.T) {
	res := &Result{Phases: []Phase{{"read", 1}, {"write", 2}, {"restart", 3}}}
	if res.ReadTime() != 1 || res.WriteTime() != 2 || res.RestartTime() != 3 {
		t.Fatal("accessors wrong")
	}
	if res.IOTime() != 6 {
		t.Fatal("IOTime wrong")
	}
	if res.Phase("nope") != 0 {
		t.Fatal("missing phase should be 0")
	}
}

func TestParticleHelpersRoundTrip(t *testing.T) {
	ps := amr.NewParticleSet(10)
	for i := 0; i < 10; i++ {
		ps.SetID(i, int64(100-i))
		ps.SetPosition(i, [3]float64{float64(i) / 10, 0.5, 0.25})
	}
	rows := packRows(&ps)
	if len(rows) != 10*rowSize() {
		t.Fatalf("rows len %d", len(rows))
	}
	back := unpackRows(rows)
	for i := 0; i < 10; i++ {
		if back.ID(i) != ps.ID(i) || back.Position(i) != ps.Position(i) {
			t.Fatalf("row round trip broke particle %d", i)
		}
	}
	_, cols := flatColumnsFromRows(rows)
	rows2 := packRows(&amr.ParticleSet{N: 10, Arrays: cols})
	for i := range rows {
		if rows[i] != rows2[i] {
			t.Fatal("columns round trip failed")
		}
	}
	// rowPosition reads the (z,y,x) position out of a row.
	rowPosition := func(row []byte) [3]float64 {
		px := math.Float64frombits(binary.LittleEndian.Uint64(row[8:]))
		py := math.Float64frombits(binary.LittleEndian.Uint64(row[16:]))
		pz := math.Float64frombits(binary.LittleEndian.Uint64(row[24:]))
		return [3]float64{pz, py, px}
	}
	if pos := rowPosition(rows[:rowSize()]); pos != ps.Position(0) {
		t.Fatalf("rowPosition = %v, want %v", pos, ps.Position(0))
	}
}

func TestConfigPresets(t *testing.T) {
	for _, cfg := range []Config{AMR64(), AMR128(), AMR256(), Tiny()} {
		if cfg.Dims[0] <= 0 || cfg.NParticles <= 0 || cfg.Dumps <= 0 {
			t.Fatalf("bad preset %+v", cfg)
		}
	}
	if AMR64().Dims != [3]int{64, 64, 64} || AMR256().Dims != [3]int{256, 256, 256} {
		t.Fatal("preset dims wrong")
	}
}

func TestScaledRestartAcrossProcCounts(t *testing.T) {
	// A checkpoint written by N ranks must restart correctly on M ranks:
	// the hierarchy metadata and layouts are communicator-size
	// independent. Verified with decomposition-independent content hashes.
	cases := []struct{ npWrite, npRead int }{{4, 2}, {2, 4}, {3, 5}}
	for _, backend := range []Backend{BackendHDF4, BackendMPIIO, BackendHDF5} {
		for _, c := range cases {
			backend, c := backend, c
			t.Run(fmt.Sprintf("%s-%dto%d", backend, c.npWrite, c.npRead), func(t *testing.T) {
				match, err := RunScaledRestart(testMachineCfg(), "xfs", c.npWrite, c.npRead, tinyCfg(), backend)
				if err != nil {
					t.Fatal(err)
				}
				if !match {
					t.Fatal("restart content differs from checkpoint content")
				}
			})
		}
	}
}

// TestScaledRestartRejectsLocalDisks: inputs a scaled restart refuses
// before it runs anything — node-local storage, and a configuration over its
// memory budget (a *FootprintError, as from Run).
func TestScaledRestartRejectsLocalDisks(t *testing.T) {
	overBudget := tinyCfg()
	overBudget.MemBudget = 1
	cases := []struct {
		name, fs  string
		cfg       Config
		footprint bool
	}{
		{"local", "local", tinyCfg(), false},
		{"budget", "xfs", overBudget, true},
	}
	for _, tc := range cases {
		_, err := RunScaledRestart(testMachineCfg(), tc.fs, 4, 2, tc.cfg, BackendMPIIO)
		var fe *FootprintError
		if err == nil || tc.footprint && !errors.As(err, &fe) {
			t.Errorf("%s: err = %v, want a refusal", tc.name, err)
		}
	}
}

// TestScaledRestartRefusesPerRankLayouts: a checkpoint stored per writing
// rank — castore items, with or without a codec, and a codec's per-rank
// segments in the z-directory file or an HDF5 dataset — is refused, with a
// plain error and before anything runs, when the reader's rank count is not
// the writer's, either way; the uncompressed shared files still restart and
// match.
func TestScaledRestartRefusesPerRankLayouts(t *testing.T) {
	type layoutRow struct {
		name     string
		backend  Backend
		codec    string
		castore  bool
		refusing bool
	}
	rows := []layoutRow{
		{"castore", BackendMPIIO, "", true, true},
		{"castore+lzss", BackendMPIIO, "lzss", true, true},
		{"mpiio+lzss", BackendMPIIO, "lzss", false, true},
		{"hdf5+lzss", BackendHDF5, "lzss", false, true},
		{"mpiio", BackendMPIIO, "", false, false},
		{"hdf5", BackendHDF5, "", false, false},
	}
	for _, row := range rows {
		for _, np := range [][2]int{{4, 2}, {2, 4}} {
			t.Run(fmt.Sprintf("%s-%dto%d", row.name, np[0], np[1]), func(t *testing.T) {
				cfg := tinyCfg()
				cfg.Codec, cfg.CAStore = row.codec, row.castore
				match, err := RunScaledRestart(machine.ChibaCity(), "pvfs", np[0], np[1], cfg, row.backend)
				switch {
				case row.refusing && err == nil:
					t.Fatalf("restarted (match %v); want a refusal", match)
				case row.refusing && !strings.Contains(err.Error(), "stored per writing rank"):
					t.Fatalf("err = %v; want the per-writing-rank refusal", err)
				case !row.refusing && err != nil:
					t.Fatal(err)
				case !row.refusing && !match:
					t.Fatal("restart content differs from checkpoint content")
				}
			})
		}
	}
}

// TestScaledRestartTakesRestoredReplicas: after a checkpoint is staged onto
// a fresh allocation (Snapshot, Restore), a castore chunk's replicas are
// different memory, and the replica Get picks by load need not be the one
// the read-ahead peeked — but it holds the same bytes, so every chunk of the
// restart is still taken from the read-ahead.
func TestScaledRestartTakesRestoredReplicas(t *testing.T) {
	cfg := tinyCfg()
	cfg.Codec, cfg.CAStore, cfg.Replicas = "lzss", true, 2
	var taken, fresh int
	match, err := scaledRestart(machine.ChibaCity(), "pvfs", 4, 4, cfg, BackendMPIIO, func(s *Sim) {
		s.onCasChunk = func(_ string, ahead bool) {
			if ahead {
				taken++
			} else {
				fresh++
			}
		}
	})
	if err != nil || !match {
		t.Fatalf("match %v, err %v", match, err)
	}
	if fresh != 0 || taken == 0 {
		t.Errorf("%d chunks decoded afresh, %d taken from the read-ahead; want 0 and all", fresh, taken)
	}
}

func TestScaledRestartDetectsCorruption(t *testing.T) {
	// The content check is not a rubber stamp: corrupt one byte of the
	// dump between checkpoint and restart and the hashes must differ.
	eng1 := sim.NewEngine()
	mach1 := machine.New(testMachineCfg())
	fs1, _ := MakeFS("xfs", mach1)
	res := &Result{}
	var before ContentHash
	mpi.NewWorld(eng1, mach1, 4, func(r *mpi.Rank) {
		s := newSim(r, fs1, BackendMPIIO, tinyCfg(), res)
		s.setup()
		s.readInitial()
		s.evolve()
		if h := s.contentHash(); r.Rank() == 0 {
			before = h
		}
		s.writeDump(0)
	})
	if err := eng1.Run(); err != nil {
		t.Fatal(err)
	}
	files := fs1.Snapshot()
	dump := files["dump00.raw"]
	if len(dump) == 0 {
		t.Fatal("dump file missing from snapshot")
	}
	dump[len(dump)/2] ^= 0xFF // flip a byte in the middle (grid data)

	eng2 := sim.NewEngine()
	mach2 := machine.New(testMachineCfg())
	fs2, _ := MakeFS("xfs", mach2)
	fs2.Restore(files)
	var after ContentHash
	res2 := &Result{}
	mpi.NewWorld(eng2, mach2, 4, func(r *mpi.Rank) {
		s := newSim(r, fs2, BackendMPIIO, tinyCfg(), res2)
		if err := s.loadMetaFromFS(dumpHierarchyFile(0)); err != nil {
			panic(err)
		}
		s.readRestart(0)
		if h := s.contentHash(); r.Rank() == 0 {
			after = h
		}
	})
	if err := eng2.Run(); err != nil {
		t.Fatal(err)
	}
	if before.Equal(after) {
		t.Fatal("corruption went undetected by the content hashes")
	}
}

func TestDynamicRefinementDeepensHierarchyAndVerifies(t *testing.T) {
	base := tinyCfg()
	cfg := base
	cfg.RefineCycles = 1
	for _, backend := range []Backend{BackendHDF4, BackendMPIIO, BackendHDF5} {
		backend := backend
		t.Run(backend.String(), func(t *testing.T) {
			static, err := Run(RunSpec{Machine: testMachineCfg(), FS: "xfs", Procs: 4, Config: base, Backend: backend})
			if err != nil {
				t.Fatal(err)
			}
			dynamic, err := Run(RunSpec{Machine: testMachineCfg(), FS: "xfs", Procs: 4, Config: cfg, Backend: backend})
			if err != nil {
				t.Fatal(err)
			}
			if !dynamic.Verified {
				t.Fatal("dynamic run failed verification")
			}
			if dynamic.Grids <= static.Grids {
				t.Fatalf("refinement created no grids: %d vs %d", dynamic.Grids, static.Grids)
			}
			if dynamic.BytesWritten <= static.BytesWritten {
				t.Fatalf("dump did not grow with the hierarchy: %d vs %d",
					dynamic.BytesWritten, static.BytesWritten)
			}
		})
	}
}

func TestDynamicRefinementScaledRestart(t *testing.T) {
	cfg := tinyCfg()
	cfg.RefineCycles = 1
	match, err := RunScaledRestart(testMachineCfg(), "xfs", 4, 3, cfg, BackendMPIIO)
	if err != nil {
		t.Fatal(err)
	}
	if !match {
		t.Fatal("dynamically refined checkpoint did not survive a scaled restart")
	}
}

func TestDumpHierarchyFileWritten(t *testing.T) {
	eng := sim.NewEngine()
	mach := machine.New(testMachineCfg())
	fs, _ := MakeFS("xfs", mach)
	res := &Result{}
	mpi.NewWorld(eng, mach, 2, func(r *mpi.Rank) {
		s := newSim(r, fs, BackendMPIIO, tinyCfg(), res)
		s.setup()
		s.readInitial()
		s.evolve()
		s.writeDump(0)
	})
	if err := eng.Run(); err != nil {
		t.Fatal(err)
	}
	if !fs.Exists("dump00.hierarchy") {
		t.Fatal("per-dump hierarchy file missing")
	}
}

func TestDynamicRefinementOnEveryFileSystem(t *testing.T) {
	cfg := tinyCfg()
	cfg.RefineCycles = 1
	for _, fsKind := range []string{"gpfs", "pvfs", "local"} {
		fsKind := fsKind
		t.Run(fsKind, func(t *testing.T) {
			res, err := Run(RunSpec{Machine: testMachineCfg(), FS: fsKind, Procs: 4, Config: cfg, Backend: BackendMPIIO})
			if err != nil {
				t.Fatal(err)
			}
			if !res.Verified {
				t.Fatalf("dynamic run on %s failed verification", fsKind)
			}
		})
	}
}

// TestQuickShrinksEveryProblem pins the one quick rule every harness
// shares (experiments, runflags, bench_test.go) to the sizes the quick
// sweeps have always run at: a quarter of the root grid, clamped at 8^3 —
// the clamp bites on Tiny only, so no AMR quick row can move.
func TestQuickShrinksEveryProblem(t *testing.T) {
	for _, tc := range []struct {
		name      string
		dim       int
		particles int
	}{
		{"tiny", 8, 256},
		{"Tiny", 8, 256},
		{"AMR64", 16, 2048},
		{"AMR128", 32, 16384},
		{"AMR256", 64, 131072},
		{"AMR512", 128, 1048576},
	} {
		full, err := ProblemByName(tc.name)
		if err != nil {
			t.Fatal(err)
		}
		q := full.Quick()
		if q.Dims != [3]int{tc.dim, tc.dim, tc.dim} || q.NParticles != tc.particles {
			t.Errorf("%s: quick = %v / %d particles, want %d^3 / %d", tc.name, q.Dims, q.NParticles, tc.dim, tc.particles)
		}
		// Only the resolution changes.
		q.Dims, q.NParticles = full.Dims, full.NParticles
		if q != full {
			t.Errorf("%s: Quick changed more than the resolution:\n%+v\n%+v", tc.name, q, full)
		}
		if tc.dim != full.Dims[0]/4 && full.Problem != "Tiny" {
			t.Errorf("%s: the 8^3 clamp bit on a paper problem", tc.name)
		}
	}
	if _, err := ProblemByName("AMR1024"); err == nil {
		t.Error("unknown problem accepted")
	}
}
