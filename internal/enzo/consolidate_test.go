package enzo

import (
	"bytes"
	"fmt"
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
