package enzo

import (
	"bytes"
	"fmt"
	"slices"
	"strings"
	"testing"

	"repro/internal/amr"
	"repro/internal/core"
	"repro/internal/faultfs"
	"repro/internal/hdf4"
	"repro/internal/hdf5"
	"repro/internal/machine"
	"repro/internal/mpi"
	"repro/internal/pfs"
)

// assembly is one run whose setup, initial read and consolidation
// assembledFields replays: a backend on a machine's file system at np ranks,
// under fault when it is non-nil. before, when set, runs on every rank
// between the setup and the initial read.
type assembly struct {
	backend Backend
	mach    machine.Config
	fs      string
	cfg     Config
	np      int
	fault   *faultfs.Config
	before  func(r *mpi.Rank, fs pfs.FileSystem, s *Sim)
}

// homeMachine is the machine each file system ran on in the paper.
func homeMachine(fsKind string) machine.Config {
	switch fsKind {
	case "pvfs":
		return machine.ChibaCity()
	case "xfs":
		return machine.Origin2000()
	}
	return machine.SP2()
}

// assembledFields runs a and returns every owner's assembled subgrid fields,
// keyed "grid/field", beside the same fields read back from the
// initial-condition container with a fresh copying read once every rank
// holds its grids, and the number of faults injected.
func assembledFields(t *testing.T, a assembly) (assembled, stored map[string][]byte, injected int64) {
	t.Helper()
	assembled, stored = map[string][]byte{}, map[string][]byte{}
	alloc := Allocation{Machine: a.mach, FS: a.fs}
	var ff *faultfs.FS
	if a.fault != nil {
		alloc.Wrap = func(fs pfs.FileSystem) (pfs.FileSystem, error) {
			ff = faultfs.Wrap(fs, *a.fault)
			return ff, nil
		}
	}
	body := func(r *mpi.Rank, fs pfs.FileSystem, s *Sim) {
		s.setup()
		if a.before != nil {
			a.before(r, fs, s)
		}
		s.readInitial()
		s.evolve()
		r.Barrier()
		read, done := s.icFields(fs)
		for id, grid := range s.owned {
			gm := s.meta.Grids[id]
			for fi, field := range amr.FieldNames {
				key := fmt.Sprintf("g%04d/%s", id, field)
				assembled[key], stored[key] = grid.Fields[fi], read(gm, fi)
			}
		}
		done()
	}
	if _, err := Assemble(alloc, World{Procs: a.np, Config: a.cfg, Backend: a.backend, Result: &Result{}, Body: body}); err != nil {
		t.Fatal(err)
	}
	if ff != nil {
		injected = ff.Injected()
	}
	return assembled, stored, injected
}

// icFields opens the backend's initial-condition container (collectively
// for HDF5) and returns a reader of one stored field of a grid — a fresh
// copying read of the container's bytes — and the closer.
func (s *Sim) icFields(fs pfs.FileSystem) (read func(gm core.GridMeta, fi int) []byte, done func()) {
	c := s.client()
	switch s.backend {
	case BackendHDF4:
		return func(gm core.GridMeta, fi int) []byte {
			name := icGridFile(gm.ID)
			sd, err := hdf4.Open(c, fs, name)
			if err != nil {
				panic(err)
			}
			defer sd.Close()
			info, err := sd.Lookup(amr.FieldNames[fi])
			if err != nil {
				panic(err)
			}
			f, err := fs.Open(c, name)
			if err != nil {
				panic(err)
			}
			defer f.Close(c)
			buf := make([]byte, info.DataLen)
			f.ReadAt(c, buf, info.DataOff)
			return buf
		}, func() {}
	case BackendHDF5:
		hf, err := hdf5.OpenRead(s.r, fs, icH5File(), s.h5cfg(icH5File()), s.hints)
		if err != nil {
			panic(err)
		}
		return func(gm core.GridMeta, fi int) []byte {
			// Opened, not closed: closing a dataset is collective, and each
			// rank reads only the grids it owns.
			ds, err := hf.OpenDataset(dsName(gm.ID, amr.FieldNames[fi]))
			if err != nil {
				panic(err)
			}
			sel := fullSel(fieldDims(gm), amr.FieldElemSize)
			buf := make([]byte, sel.Bytes())
			ds.IssueReadHyperslab(false, sel, buf)
			return buf
		}, hf.Close
	}
	f, err := fs.Open(c, icRawFile())
	if err != nil {
		panic(err)
	}
	return func(gm core.GridMeta, fi int) []byte {
		off, n := s.offsets.ArrayOffset(gm.ID, amr.FieldNames[fi])
		buf := make([]byte, n)
		f.ReadAt(c, buf, off)
		return buf
	}, func() { f.Close(c) }
}

// checkAssembled requires one assembled field per subgrid field of cfg's
// hierarchy, each equal to the bytes its container stores.
func checkAssembled(t *testing.T, cfg Config, assembled, stored map[string][]byte) {
	t.Helper()
	want := (len(hierEntryFor(cfg).hierarchy().Grids) - 1) * len(amr.FieldNames)
	if len(assembled) != want {
		t.Errorf("%d subgrid fields assembled, want %d", len(assembled), want)
	}
	for key, got := range assembled {
		if !bytes.Equal(got, stored[key]) {
			t.Errorf("%s: the owner's assembled field is not the array the container stores", key)
		}
	}
}

// TestHDF4ConsolidateIsTheStoredArray: the HDF4 root scatters views of the
// arrays it was lent and the owners assemble their subgrids from them, so
// every assembled field must be exactly what the initial-condition file
// stores — also when that is not what was written: under one corrupted
// write to one subgrid's file the owner holds the corrupted array, the
// bytes the root read, and every other field is the clean run's.
func TestHDF4ConsolidateIsTheStoredArray(t *testing.T) {
	run := func(cfg Config, np int, fault *faultfs.Config) assembly {
		return assembly{backend: BackendHDF4, mach: machine.SP2(), fs: "gpfs", cfg: cfg, np: np, fault: fault}
	}
	for _, tc := range []struct {
		name string
		cfg  Config
		np   int
	}{{"Tiny/np4", Tiny(), 4}, {"AMR64/np8", AMR64(), 8}} {
		t.Run(tc.name, func(t *testing.T) {
			assembled, stored, _ := assembledFields(t, run(tc.cfg, tc.np, nil))
			checkAssembled(t, tc.cfg, assembled, stored)
		})
	}
	t.Run("Tiny/np4/corrupt-ic", func(t *testing.T) {
		clean, _, _ := assembledFields(t, run(Tiny(), 4, nil))
		target := icGridFile(1)
		fault := faultfs.Config{Mode: faultfs.CorruptWrite, MinBytes: 1024, FileSubstr: target, MaxInject: 1}
		assembled, stored, injected := assembledFields(t, run(Tiny(), 4, &fault))
		if injected != 1 {
			t.Fatalf("%d writes corrupted, want 1", injected)
		}
		checkAssembled(t, Tiny(), assembled, stored)
		var moved []string
		for key, got := range assembled {
			if !bytes.Equal(got, clean[key]) {
				moved = append(moved, key)
			}
		}
		if len(moved) != 1 || !strings.HasPrefix(moved[0], "g0001/") {
			t.Errorf("fields that differ from the clean run: %v, want one field of grid 1", moved)
		}
	})
}

// TestConsolidateIsTheStoredArray: on the two-phase backends the aggregators
// are lent the initial-condition file's extents and answer with references
// to them, and the owners assemble their subgrids out of those references —
// so every assembled field must be exactly what the container stores, on
// every file system the paper ran on. Under a stale read of one aggregator
// extent the owner holds the overlay, the bytes the aggregator was served,
// while the stored extent keeps its own: faultfs overlays a private copy,
// never the lent piece.
func TestConsolidateIsTheStoredArray(t *testing.T) {
	for _, backend := range []Backend{BackendMPIIO, BackendMPIIOCB, BackendHDF5} {
		for _, fsKind := range []string{"pvfs", "gpfs", "xfs"} {
			for _, tc := range []struct {
				name string
				cfg  Config
				np   int
			}{{"Tiny/np4", Tiny(), 4}, {"AMR64/np8", AMR64(), 8}} {
				t.Run(fmt.Sprintf("%s/%s/%s", backend, fsKind, tc.name), func(t *testing.T) {
					t.Parallel()
					assembled, stored, _ := assembledFields(t, assembly{backend: backend, mach: homeMachine(fsKind),
						fs: fsKind, cfg: tc.cfg, np: tc.np})
					checkAssembled(t, tc.cfg, assembled, stored)
				})
			}
		}
	}
	t.Run("mpiio/pvfs/Tiny/np4/stale-extent", func(t *testing.T) {
		run := assembly{backend: BackendMPIIO, mach: machine.ChibaCity(), fs: "pvfs", cfg: Tiny(), np: 4}
		clean, _, _ := assembledFields(t, run)
		// Rewrite 256 bytes in the middle of grid 1's first field after the
		// setup: the file stores the flipped bytes, and the one stale read
		// faultfs serves — the first read of at least 1 KiB that reaches
		// them, an aggregator's extent — overlays the bytes written first.
		const n = 256
		var at int64
		key := fmt.Sprintf("g%04d/%s", 1, amr.FieldNames[0])
		run.fault = &faultfs.Config{Mode: faultfs.StaleRead, EveryN: 1, MinBytes: 1024, FileSubstr: icRawFile(), MaxInject: 1}
		run.before = func(r *mpi.Rank, fs pfs.FileSystem, s *Sim) {
			if r.Rank() == 0 {
				c := s.client()
				f, err := fs.Open(c, icRawFile())
				if err != nil {
					panic(err)
				}
				off, length := s.offsets.ArrayOffset(1, amr.FieldNames[0])
				at = off + length/2
				flipped := make([]byte, n)
				f.ReadAt(c, flipped, at)
				for i := range flipped {
					flipped[i] ^= 0xFF
				}
				f.WriteAt(c, flipped, at)
				f.Close(c)
			}
			r.Barrier()
		}
		assembled, stored, injected := assembledFields(t, run)
		if injected != 1 {
			t.Fatalf("%d stale reads served, want 1", injected)
		}
		for k, got := range assembled {
			if k == key {
				continue
			}
			if !bytes.Equal(got, stored[k]) {
				t.Errorf("%s: the owner's assembled field is not the array the file stores", k)
			}
		}
		if !bytes.Equal(assembled[key], clean[key]) {
			t.Errorf("%s: the owner does not hold the stale overlay, the field as first written", key)
		}
		if bytes.Equal(stored[key], clean[key]) {
			t.Errorf("%s: the stored extent lost the rewrite: the overlay went into the lent piece", key)
		}
	})
}

// staleExtent is TestConsolidateIsTheStoredArray's stale-extent row: a
// Tiny/np=4 mpiio run on chiba/pvfs that rewrites 256 bytes in the middle of
// grid 1's first field after the setup: the file
// stores the flipped bytes, and the one stale read faultfs serves — the
// first read of at least 1 KiB that reaches them, an aggregator's extent —
// overlays the bytes written first. key names the rewritten field.
func staleExtent() (run assembly, key string) {
	const n = 256
	run = assembly{backend: BackendMPIIO, mach: machine.ChibaCity(), fs: "pvfs", cfg: Tiny(), np: 4,
		fault: &faultfs.Config{Mode: faultfs.StaleRead, EveryN: 1, MinBytes: 1024, FileSubstr: icRawFile(), MaxInject: 1}}
	run.before = func(r *mpi.Rank, fs pfs.FileSystem, s *Sim) {
		if r.Rank() == 0 {
			c := s.client()
			f, err := fs.Open(c, icRawFile())
			if err != nil {
				panic(err)
			}
			off, length := s.offsets.ArrayOffset(1, amr.FieldNames[0])
			at := off + length/2
			flipped := make([]byte, n)
			f.ReadAt(c, flipped, at)
			for i := range flipped {
				flipped[i] ^= 0xFF
			}
			f.WriteAt(c, flipped, at)
			f.Close(c)
		}
		r.Barrier()
	}
	return run, fmt.Sprintf("g%04d/%s", 1, amr.FieldNames[0])
}

// adoption splits the assembled fields — one per subgrid field of cfg's
// hierarchy — by whether each is the cached hierarchy's own array (the same
// memory, not equal bytes), and reports a field that is neither that memory
// nor equal to its bytes.
func adoption(t *testing.T, cfg Config, assembled map[string][]byte) (adopted, copied []string) {
	t.Helper()
	h := hierEntryFor(cfg).hierarchy()
	if want := (len(h.Grids) - 1) * len(amr.FieldNames); len(assembled) != want {
		t.Fatalf("%d subgrid fields assembled, want %d", len(assembled), want)
	}
	for key, got := range assembled {
		var id int
		var field string
		if _, err := fmt.Sscanf(key, "g%d/%s", &id, &field); err != nil {
			t.Fatal(err)
		}
		ic := h.Grids[id].Fields[slices.Index(amr.FieldNames[:], field)]
		switch {
		case len(got) > 0 && len(got) == len(ic) && &got[0] == &ic[0]:
			adopted = append(adopted, key)
		case bytes.Equal(got, ic):
			copied = append(copied, key)
		default:
			t.Errorf("%s: the owner's field is neither the initial-condition array nor equal to it", key)
		}
	}
	slices.Sort(adopted)
	slices.Sort(copied)
	return adopted, copied
}

// TestOwnerAdoptsTheICArray: where the initial-condition file stores the
// hierarchy's arrays by reference and every block reaches its owner as a
// reference to them — the paper's three libraries on their home platforms,
// and the collective-buffering variant — the owner keeps the hierarchy's
// array instead of assembling a copy. Where a partition is a copy — a
// node-local or compressed provisioning, a stale overlay — the owner
// assembles one, equal to the array.
func TestOwnerAdoptsTheICArray(t *testing.T) {
	sizes := []struct {
		name string
		cfg  Config
		np   int
	}{{"Tiny/np4", Tiny(), 4}, {"AMR64/np8", AMR64(), 8}}
	for _, row := range []struct {
		backend Backend
		fs      string
	}{{BackendHDF4, "gpfs"}, {BackendMPIIO, "pvfs"}, {BackendMPIIOCB, "pvfs"}, {BackendHDF5, "xfs"}} {
		for _, sz := range sizes {
			t.Run(fmt.Sprintf("%s/%s/%s", row.backend, row.fs, sz.name), func(t *testing.T) {
				t.Parallel()
				assembled, stored, _ := assembledFields(t, assembly{backend: row.backend, mach: homeMachine(row.fs),
					fs: row.fs, cfg: sz.cfg, np: sz.np})
				checkAssembled(t, sz.cfg, assembled, stored)
				if _, copied := adoption(t, sz.cfg, assembled); len(copied) > 0 {
					t.Errorf("%d of %d fields copied, not adopted: %v", len(copied), len(assembled), copied)
				}
			})
		}
	}
	lzss := Tiny()
	lzss.Codec = "lzss"
	for _, tc := range []struct {
		name string
		run  assembly
	}{
		{"mpiio/chiba/local", assembly{backend: BackendMPIIO, mach: machine.ChibaCity(), fs: "local", cfg: Tiny(), np: 4}},
		{"mpiio/chiba/pvfs/lzss", assembly{backend: BackendMPIIO, mach: machine.ChibaCity(), fs: "pvfs", cfg: lzss, np: 4}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			assembled, _, _ := assembledFields(t, tc.run)
			if adopted, _ := adoption(t, tc.run.cfg, assembled); len(adopted) > 0 {
				t.Errorf("fields adopted from a provisioned copy: %v", adopted)
			}
		})
	}
	t.Run("mpiio/pvfs/Tiny/np4/stale-extent", func(t *testing.T) {
		run, key := staleExtent()
		assembled, _, injected := assembledFields(t, run)
		if injected != 1 {
			t.Fatalf("%d stale reads served, want 1", injected)
		}
		adopted, copied := adoption(t, run.cfg, assembled)
		if !slices.Contains(copied, key) {
			t.Errorf("%s: the stale overlay was not copied into a grid of the owner's", key)
		}
		if len(adopted) == 0 {
			t.Errorf("no field adopted: the overlay of one extent kept every field from its array")
		}
	})
}

// hierarchyDigest folds every field and particle array of a hierarchy,
// grid by grid, into one hash.
func hierarchyDigest(h *amr.Hierarchy) uint64 {
	var d uint64
	for _, g := range h.Grids {
		for _, arrays := range [][][]byte{g.Fields, g.Particles.Arrays} {
			for _, a := range arrays {
				d = hashBytes(d, a)
			}
		}
	}
	return d
}

// TestRunsLeaveTheHierarchyUnchanged: an owned grid may be the cached
// hierarchy's own array, which every later run of the problem in the process
// reads, so no run may write into one — not the dumps, the refinement, the
// write-behind pipeline, the chunk store and its scrub, nor a fault injector
// corrupting what is written. Every backend runs each of these on its home
// platform, one after another (two runs that flip the same byte would hide
// each other), and the hierarchy's digest must not move.
func TestRunsLeaveTheHierarchyUnchanged(t *testing.T) {
	corrupt := func(fs pfs.FileSystem) pfs.FileSystem {
		return faultfs.Wrap(fs, faultfs.Config{Mode: faultfs.CorruptWrite, EveryN: 3, MinBytes: 2048, MaxInject: 6})
	}
	variants := []struct {
		name string
		set  func(*Config)
		wrap func(pfs.FileSystem) pfs.FileSystem
	}{
		{"plain", func(*Config) {}, nil},
		{"refine", func(c *Config) { c.RefineCycles = 1 }, nil},
		{"async", func(c *Config) { c.AsyncIO = true }, nil},
		{"castore-scrub", func(c *Config) { c.CAStore, c.Replicas, c.ScrubOnDump = true, 2, true }, nil},
		{"corrupt-write", func(*Config) {}, corrupt},
	}
	for _, sz := range []struct {
		name string
		cfg  Config
		np   int
	}{{"Tiny/np4", Tiny(), 4}, {"AMR64/np8", AMR64(), 8}} {
		h := hierEntryFor(sz.cfg).hierarchy()
		want := hierarchyDigest(h)
		for _, backend := range []Backend{BackendHDF4, BackendMPIIO, BackendMPIIOCB, BackendHDF5} {
			fsKind := map[Backend]string{BackendHDF4: "gpfs", BackendHDF5: "xfs"}[backend]
			if fsKind == "" {
				fsKind = "pvfs"
			}
			for _, v := range variants {
				cfg := sz.cfg
				v.set(&cfg)
				spec := RunSpec{Machine: homeMachine(fsKind), FS: fsKind, Procs: sz.np, Config: cfg, Backend: backend, Wrap: v.wrap}
				if spec.Validate() != nil {
					continue // refused: nothing runs
				}
				if _, err := Run(spec); err != nil {
					t.Fatalf("%s/%s/%s: %v", sz.name, backend, v.name, err)
				}
				if hierarchyDigest(h) != want {
					t.Fatalf("%s/%s/%s: the run wrote into the cached hierarchy", sz.name, backend, v.name)
				}
			}
		}
	}
}

// BenchmarkHDF4InitialRead is HDF4's initial read of AMR64 at np=8 on
// sp2/gpfs: processor 0 reads every array and scatters views of them, the
// ranks pack their top-grid blocks and keep their subgrid views. One engine
// run hosts all b.N reads after one setup; B/op sums the ranks.
func BenchmarkHDF4InitialRead(b *testing.B) {
	benchInitialRead(b, BackendHDF4, machine.SP2(), "gpfs")
}

// BenchmarkInitialRead is the two-phase backends' initial read of AMR64 at
// np=8, each on its home platform: the aggregators are lent their extents
// and reply with references, the ranks pack their top-grid blocks and keep
// their subgrid views. One engine run hosts all b.N reads after one setup;
// B/op sums the ranks.
func BenchmarkInitialRead(b *testing.B) {
	b.Run("mpiio/chiba/pvfs", func(b *testing.B) { benchInitialRead(b, BackendMPIIO, machine.ChibaCity(), "pvfs") })
	b.Run("hdf5/origin2000/xfs", func(b *testing.B) { benchInitialRead(b, BackendHDF5, machine.Origin2000(), "xfs") })
}

func benchInitialRead(b *testing.B, backend Backend, mach machine.Config, fsKind string) {
	body := func(r *mpi.Rank, _ pfs.FileSystem, s *Sim) {
		s.setup()
		r.Barrier()
		if r.Rank() == 0 {
			b.ReportAllocs()
			b.ResetTimer()
		}
		for i := 0; i < b.N; i++ {
			s.readInitial()
			s.top, s.partials = nil, nil
		}
	}
	w := World{Procs: 8, Config: AMR64(), Backend: backend, Result: &Result{}, Body: body}
	if _, err := Assemble(Allocation{Machine: mach, FS: fsKind}, w); err != nil {
		b.Fatal(err)
	}
}

// BenchmarkConsolidate is the initial read and the load-balance
// consolidation of AMR64 at np=8 for the paper's three libraries, each on its
// home platform: one readInitial and one evolve per op, after one setup, in
// one engine run; B/op sums the ranks. Where the owners adopt the
// initial-condition arrays, the consolidation allocates no field.
func BenchmarkConsolidate(b *testing.B) {
	for _, row := range []struct {
		backend Backend
		fs      string
	}{{BackendHDF4, "gpfs"}, {BackendMPIIO, "pvfs"}, {BackendHDF5, "xfs"}} {
		b.Run(fmt.Sprintf("%s/%s", row.backend, row.fs), func(b *testing.B) {
			body := func(r *mpi.Rank, _ pfs.FileSystem, s *Sim) {
				s.setup()
				r.Barrier()
				if r.Rank() == 0 {
					b.ReportAllocs()
					b.ResetTimer()
				}
				for i := 0; i < b.N; i++ {
					s.readInitial()
					s.evolve()
					s.clearState()
				}
			}
			w := World{Procs: 8, Config: AMR64(), Backend: row.backend, Result: &Result{}, Body: body}
			if _, err := Assemble(Allocation{Machine: homeMachine(row.fs), FS: row.fs}, w); err != nil {
				b.Fatal(err)
			}
		})
	}
}
