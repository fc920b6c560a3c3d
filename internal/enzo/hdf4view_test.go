package enzo

import (
	"bytes"
	"strings"
	"testing"

	"repro/internal/amr"
	"repro/internal/faultfs"
	"repro/internal/hdf4"
	"repro/internal/machine"
	"repro/internal/mpi"
	"repro/internal/pfs"
)

// hdf4Assembled runs the setup, initial read and consolidation of one HDF4
// run on sp2/gpfs, under fault when it is non-nil. It returns every owner's
// assembled subgrid fields, keyed "file/field", beside the same fields read
// back from the initial-condition files with a fresh ReadAt once every rank
// holds its grids, and the number of faults injected.
func hdf4Assembled(t *testing.T, cfg Config, np int, fault *faultfs.Config) (assembled, stored map[string][]byte, injected int64) {
	t.Helper()
	assembled, stored = map[string][]byte{}, map[string][]byte{}
	a := Allocation{Machine: machine.SP2(), FS: "gpfs"}
	var ff *faultfs.FS
	if fault != nil {
		a.Wrap = func(fs pfs.FileSystem) (pfs.FileSystem, error) {
			ff = faultfs.Wrap(fs, *fault)
			return ff, nil
		}
	}
	body := func(r *mpi.Rank, fs pfs.FileSystem, s *Sim) {
		s.setup()
		s.readInitial()
		s.evolve()
		r.Barrier()
		c := s.client()
		for id, grid := range s.owned {
			name := icGridFile(id)
			sd, err := hdf4.Open(c, fs, name)
			if err != nil {
				panic(err)
			}
			f, err := fs.Open(c, name)
			if err != nil {
				panic(err)
			}
			for fi, field := range amr.FieldNames {
				info, err := sd.Lookup(field)
				if err != nil {
					panic(err)
				}
				buf := make([]byte, info.DataLen)
				f.ReadAt(c, buf, info.DataOff)
				key := name + "/" + field
				assembled[key], stored[key] = grid.Fields[fi], buf
			}
			f.Close(c)
			sd.Close()
		}
	}
	if _, err := Assemble(a, World{Procs: np, Config: cfg, Backend: BackendHDF4, Result: &Result{}, Body: body}); err != nil {
		t.Fatal(err)
	}
	if ff != nil {
		injected = ff.Injected()
	}
	return assembled, stored, injected
}

// checkAssembled requires one assembled field per subgrid field of cfg's
// hierarchy, each equal to the bytes its file stores.
func checkAssembled(t *testing.T, cfg Config, assembled, stored map[string][]byte) {
	t.Helper()
	want := (len(hierEntryFor(cfg).hierarchy().Grids) - 1) * len(amr.FieldNames)
	if len(assembled) != want {
		t.Errorf("%d subgrid fields assembled, want %d", len(assembled), want)
	}
	for key, got := range assembled {
		if !bytes.Equal(got, stored[key]) {
			t.Errorf("%s: the owner's assembled field is not the array the file stores", key)
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
	for _, tc := range []struct {
		name string
		cfg  Config
		np   int
	}{{"Tiny/np4", Tiny(), 4}, {"AMR64/np8", AMR64(), 8}} {
		t.Run(tc.name, func(t *testing.T) {
			assembled, stored, _ := hdf4Assembled(t, tc.cfg, tc.np, nil)
			checkAssembled(t, tc.cfg, assembled, stored)
		})
	}
	t.Run("Tiny/np4/corrupt-ic", func(t *testing.T) {
		clean, _, _ := hdf4Assembled(t, Tiny(), 4, nil)
		target := icGridFile(1)
		fault := faultfs.Config{Mode: faultfs.CorruptWrite, MinBytes: 1024, FileSubstr: target, MaxInject: 1}
		assembled, stored, injected := hdf4Assembled(t, Tiny(), 4, &fault)
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
		if len(moved) != 1 || !strings.HasPrefix(moved[0], target+"/") {
			t.Errorf("fields that differ from the clean run: %v, want one field of %s", moved, target)
		}
	})
}

// BenchmarkHDF4InitialRead is HDF4's initial read of AMR64 at np=8 on
// sp2/gpfs: processor 0 reads every array and scatters views of them, the
// ranks pack their top-grid blocks and keep their subgrid views. One engine
// run hosts all b.N reads after one setup; B/op sums the ranks.
func BenchmarkHDF4InitialRead(b *testing.B) {
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
	w := World{Procs: 8, Config: AMR64(), Backend: BackendHDF4, Result: &Result{}, Body: body}
	if _, err := Assemble(Allocation{Machine: machine.SP2(), FS: "gpfs"}, w); err != nil {
		b.Fatal(err)
	}
}
