package hdf5

import (
	"bytes"
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/machine"
	"repro/internal/mpi"
	"repro/internal/mpiio"
	"repro/internal/pfs"
	"repro/internal/sim"
)

func runH5(t *testing.T, nprocs int, body func(r *mpi.Rank, fs pfs.FileSystem)) (float64, pfs.FileSystem) {
	t.Helper()
	eng := sim.NewEngine()
	mach := machine.New(machine.ByName("origin2000"))
	fs := pfs.NewXFS(mach, pfs.DefaultXFS())
	mpi.NewWorld(eng, mach, nprocs, func(r *mpi.Rank) { body(r, fs) })
	if err := eng.Run(); err != nil {
		t.Fatal(err)
	}
	return eng.MaxTime(), fs
}

func TestHyperslabWriteReadRoundTrip(t *testing.T) {
	const N = 12
	nprocs := 4
	pz, py, px := mpi.ProcGrid3D(nprocs)
	elem := 4
	global := make([]byte, N*N*N*elem)
	rand.New(rand.NewSource(11)).Read(global)

	_, fs := runH5(t, nprocs, func(r *mpi.Rank, fs pfs.FileSystem) {
		h, err := Create(r, fs, "sim.h5", DefaultConfig(), mpiio.DefaultHints())
		if err != nil {
			panic(err)
		}
		ds, err := h.CreateDataset("density", []int{N, N, N}, elem)
		if err != nil {
			panic(err)
		}
		sel := mpi.BlockDecompose3D([3]int{N, N, N}, pz, py, px, r.Rank(), elem)
		ds.WriteHyperslab(sel, sel.GatherSub(global))
		ds.Close()
		h.Close()
	})

	// Reopen with a different processor count and verify contents.
	runOnSameFS(t, fs, 2, func(r *mpi.Rank) {
		h, err := OpenRead(r, fs, "sim.h5", DefaultConfig(), mpiio.DefaultHints())
		if err != nil {
			panic(err)
		}
		ds, err := h.OpenDataset("density")
		if err != nil {
			panic(err)
		}
		if ds.ElemSize() != elem || len(ds.Dims()) != 3 || ds.Dims()[0] != N {
			panic("dataset metadata corrupted")
		}
		pz2, py2, px2 := mpi.ProcGrid3D(2)
		sel := mpi.BlockDecompose3D([3]int{N, N, N}, pz2, py2, px2, r.Rank(), elem)
		var blk mpi.View
		ds.IssueReadHyperslabInto(false, &sel, &blk)
		if !bytes.Equal(blk.Pack(), sel.GatherSub(global)) {
			panic(fmt.Sprintf("rank %d read wrong data", r.Rank()))
		}
		ds.Close()
		h.Close()
	})
}

func runOnSameFS(t *testing.T, fs pfs.FileSystem, nprocs int, body func(r *mpi.Rank)) {
	t.Helper()
	eng := sim.NewEngine()
	mach := machine.New(machine.ByName("origin2000"))
	mpi.NewWorld(eng, mach, nprocs, body)
	if err := eng.Run(); err != nil {
		t.Fatal(err)
	}
}

func TestMultipleDatasetsAndAttributes(t *testing.T) {
	names := []string{"density", "energy", "vx", "vy", "vz"}
	_, fs := runH5(t, 3, func(r *mpi.Rank, fs pfs.FileSystem) {
		h, err := Create(r, fs, "m.h5", DefaultConfig(), mpiio.DefaultHints())
		if err != nil {
			panic(err)
		}
		h.WriteAttribute("version", []byte("enzo-1.0"))
		for i, n := range names {
			ds, err := h.CreateDataset(n, []int{8, 8}, 8)
			if err != nil {
				panic(err)
			}
			// Rank 0 writes the whole dataset; others pass empty slabs.
			sel := mpi.Subarray{Sizes: []int{8, 8}, Subsizes: []int{0, 0}, Starts: []int{0, 0}, ElemSize: 8}
			var data []byte
			if r.Rank() == 0 {
				sel.Subsizes = []int{8, 8}
				data = bytes.Repeat([]byte{byte(i + 1)}, 8*8*8)
			}
			ds.WriteHyperslab(sel, data)
			h.WriteAttribute("units-"+n, []byte("cgs"))
			ds.Close()
		}
		h.Close()
	})
	runOnSameFS(t, fs, 1, func(r *mpi.Rank) {
		h, err := OpenRead(r, fs, "m.h5", DefaultConfig(), mpiio.DefaultHints())
		if err != nil {
			panic(err)
		}
		got := h.Datasets()
		if len(got) != len(names) {
			panic(fmt.Sprintf("datasets = %v", got))
		}
		for i, n := range names {
			if got[i] != n {
				panic("dataset order lost")
			}
			ds, err := h.OpenDataset(n)
			if err != nil {
				panic(err)
			}
			sel := mpi.Subarray{Sizes: []int{8, 8}, Subsizes: []int{8, 8}, Starts: []int{0, 0}, ElemSize: 8}
			buf := make([]byte, sel.Bytes())
			ds.IssueReadHyperslab(false, sel, buf)
			for _, b := range buf {
				if b != byte(i+1) {
					panic("data mismatch after attribute interleaving")
				}
			}
			ds.Close()
		}
		h.Close()
	})
}

func TestCreateDatasetValidation(t *testing.T) {
	runH5(t, 2, func(r *mpi.Rank, fs pfs.FileSystem) {
		h, _ := Create(r, fs, "v.h5", DefaultConfig(), mpiio.DefaultHints())
		if _, err := h.CreateDataset("a", nil, 4); err == nil {
			panic("rank 0 accepted")
		}
		if _, err := h.CreateDataset("a", []int{4}, 4); err != nil {
			panic(err)
		}
		if _, err := h.CreateDataset("a", []int{4}, 4); err == nil {
			panic("duplicate accepted")
		}
		if _, err := h.OpenDataset("zzz"); err == nil {
			panic("missing dataset opened")
		}
		h.Close()
	})
}

func TestIndependentParticleBlocks(t *testing.T) {
	// 1-D dataset partitioned in contiguous blocks, written independently
	// (the ENZO particle pattern after the parallel sort).
	const n = 4000
	nprocs := 4
	_, fs := runH5(t, nprocs, func(r *mpi.Rank, fs pfs.FileSystem) {
		h, _ := Create(r, fs, "part.h5", DefaultConfig(), mpiio.DefaultHints())
		ds, err := h.CreateDataset("particle_id", []int{n}, 8)
		if err != nil {
			panic(err)
		}
		per := n / nprocs
		sel := mpi.Subarray{Sizes: []int{n}, Subsizes: []int{per}, Starts: []int{r.Rank() * per}, ElemSize: 8}
		data := bytes.Repeat([]byte{byte(r.Rank() + 1)}, per*8)
		ds.WriteHyperslabIndependent(sel, data)
		r.Barrier()
		ds.Close()
		h.Close()
	})
	runOnSameFS(t, fs, 1, func(r *mpi.Rank) {
		h, err := OpenRead(r, fs, "part.h5", DefaultConfig(), mpiio.DefaultHints())
		if err != nil {
			panic(err)
		}
		ds, _ := h.OpenDataset("particle_id")
		sel := mpi.Subarray{Sizes: []int{n}, Subsizes: []int{n}, Starts: []int{0}, ElemSize: 8}
		buf := make([]byte, n*8)
		ds.IssueReadHyperslab(false, sel, buf)
		per := n / 4
		for rank := 0; rank < 4; rank++ {
			for i := 0; i < per*8; i++ {
				if buf[rank*per*8+i] != byte(rank+1) {
					panic("block data wrong")
				}
			}
		}
		// Lent: one piece per block written, or the one a selection lies in.
		pieces, _ := ds.IssueLendHyperslab(false, sel)
		if len(pieces) != nprocs || !bytes.Equal(pfs.LentRange(pieces, pieces[0].Off, int64(len(buf))), buf) {
			panic(fmt.Sprintf("lent %d pieces, want %d holding the same bytes", len(pieces), nprocs))
		}
		inner := mpi.Subarray{Sizes: []int{n}, Subsizes: []int{per / 2}, Starts: []int{per + 1}, ElemSize: 8}
		if pieces, _ = ds.IssueLendHyperslab(false, inner); len(pieces) != 1 || !bytes.Equal(pieces[0].Bytes, buf[(per+1)*8:(per+1+per/2)*8]) {
			panic("a selection inside one written block was not lent as one piece")
		}
		h.Close()
	})
}

func TestHDF5SlowerThanDirectMPIIO(t *testing.T) {
	// The Figure 10 mechanism in isolation: writing the same decomposed
	// 3-D arrays through HDF5 must cost more virtual time than through
	// plain MPI-IO collective writes, because of dataset create/close
	// synchronizations, rank-0 metadata writes and hyperslab packing.
	const N = 32
	nprocs := 8
	pz, py, px := mpi.ProcGrid3D(nprocs)
	elem := 4
	const nArrays = 8

	h5Time, _ := runH5(t, nprocs, func(r *mpi.Rank, fs pfs.FileSystem) {
		h, _ := Create(r, fs, "h5", DefaultConfig(), mpiio.DefaultHints())
		sel := mpi.BlockDecompose3D([3]int{N, N, N}, pz, py, px, r.Rank(), elem)
		data := make([]byte, sel.Bytes())
		for i := 0; i < nArrays; i++ {
			ds, _ := h.CreateDataset(fmt.Sprintf("f%d", i), []int{N, N, N}, elem)
			ds.WriteHyperslab(sel, data)
			ds.Close()
		}
		h.Close()
	})
	mpiioTime, _ := runH5(t, nprocs, func(r *mpi.Rank, fs pfs.FileSystem) {
		f, _ := mpiio.Open(r, fs, "mp", mpiio.ModeCreate, mpiio.DefaultHints())
		sel := mpi.BlockDecompose3D([3]int{N, N, N}, pz, py, px, r.Rank(), elem)
		data := make([]byte, sel.Bytes())
		arrayBytes := int64(N * N * N * elem)
		for i := 0; i < nArrays; i++ {
			runs := sel.Flatten()
			for j := range runs {
				runs[j].Off += int64(i) * arrayBytes
			}
			f.WriteAtAll(runs, data)
		}
		f.Close()
	})
	if h5Time <= mpiioTime {
		t.Fatalf("HDF5 %.4fs not slower than MPI-IO %.4fs", h5Time, mpiioTime)
	}
}

func TestOpenReadBadFileFails(t *testing.T) {
	_, fs := runH5(t, 1, func(r *mpi.Rank, fs pfs.FileSystem) {
		f, _ := mpiio.Open(r, fs, "junk", mpiio.ModeCreate, mpiio.DefaultHints())
		f.WriteAt([]byte("garbage data, not hdf5"), 0)
		f.Close()
	})
	runOnSameFS(t, fs, 1, func(r *mpi.Rank) {
		if _, err := OpenRead(r, fs, "junk", DefaultConfig(), mpiio.DefaultHints()); err == nil {
			panic("expected superblock check failure")
		}
	})
}

func TestDatasetUnalignedOffsets(t *testing.T) {
	// Overhead (2): data offsets must not be block-aligned — metadata
	// lives in the stream.
	_, fs := runH5(t, 1, func(r *mpi.Rank, fs pfs.FileSystem) {
		h, _ := Create(r, fs, "a.h5", DefaultConfig(), mpiio.DefaultHints())
		ds, _ := h.CreateDataset("d", []int{100}, 4)
		if ds.info.DataOff%4096 == 0 {
			panic("dataset suspiciously aligned")
		}
		if ds.info.DataOff != DefaultConfig().SuperblockSize+DefaultConfig().ObjectHeaderSize {
			panic(fmt.Sprintf("dataset at %d", ds.info.DataOff))
		}
		h.Close()
	})
	_ = fs
}

// TestOverheadTogglesPreserveDataAndReduceCost disables the four Section
// 4.5 overheads one at a time: contents must round-trip identically and
// the write time must drop monotonically as overheads are removed.
func TestOverheadTogglesPreserveDataAndReduceCost(t *testing.T) {
	const N = 16
	nprocs := 4
	pz, py, px := mpi.ProcGrid3D(nprocs)
	elem := 4
	global := make([]byte, N*N*N*elem)
	rand.New(rand.NewSource(21)).Read(global)

	runCfg := func(cfg Config) (float64, pfs.FileSystem) {
		eng := sim.NewEngine()
		mach := machine.New(machine.ByName("origin2000"))
		fs := pfs.NewXFS(mach, pfs.DefaultXFS())
		var writeTime float64
		mpi.NewWorld(eng, mach, nprocs, func(r *mpi.Rank) {
			h, err := Create(r, fs, "t.h5", cfg, mpiio.DefaultHints())
			if err != nil {
				panic(err)
			}
			sel := mpi.BlockDecompose3D([3]int{N, N, N}, pz, py, px, r.Rank(), elem)
			t0 := r.Now()
			for i := 0; i < 6; i++ {
				ds, err := h.CreateDataset(fmt.Sprintf("f%d", i), []int{N, N, N}, elem)
				if err != nil {
					panic(err)
				}
				ds.WriteHyperslab(sel, sel.GatherSub(global))
				h.WriteAttribute(fmt.Sprintf("a%d", i), []byte("x"))
				ds.Close()
			}
			if dt := r.AllreduceFloat64(r.Now()-t0, mpi.OpMax); r.Rank() == 0 {
				writeTime = dt
			}
			h.Close()
		})
		if err := eng.Run(); err != nil {
			t.Fatal(err)
		}
		return writeTime, fs
	}

	verify := func(fs pfs.FileSystem, cfg Config) {
		runOnSameFS(t, fs, 1, func(r *mpi.Rank) {
			h, err := OpenRead(r, fs, "t.h5", cfg, mpiio.DefaultHints())
			if err != nil {
				panic(err)
			}
			for i := 0; i < 6; i++ {
				ds, err := h.OpenDataset(fmt.Sprintf("f%d", i))
				if err != nil {
					panic(err)
				}
				sel := mpi.Subarray{Sizes: []int{N, N, N}, Subsizes: []int{N, N, N},
					Starts: []int{0, 0, 0}, ElemSize: elem}
				buf := make([]byte, sel.Bytes())
				ds.IssueReadHyperslab(false, sel, buf)
				if !bytes.Equal(buf, global) {
					panic(fmt.Sprintf("dataset f%d corrupted under cfg %+v", i, cfg))
				}
			}
			h.Close()
		})
	}

	full := DefaultConfig()
	tAll, fsAll := runCfg(full)
	verify(fsAll, full)

	lean := DefaultConfig()
	lean.DisableCreateSync = true
	lean.AlignData = true
	lean.DisableRecursivePack = true
	lean.ParallelAttrs = true
	tLean, fsLean := runCfg(lean)
	verify(fsLean, lean)

	if tLean >= tAll {
		t.Fatalf("all overheads disabled (%.5fs) should beat full overheads (%.5fs)", tLean, tAll)
	}

	// Each individual toggle must not increase cost and must round-trip.
	for i := 0; i < 4; i++ {
		cfg := DefaultConfig()
		switch i {
		case 0:
			cfg.DisableCreateSync = true
		case 1:
			cfg.AlignData = true
		case 2:
			cfg.DisableRecursivePack = true
		case 3:
			cfg.ParallelAttrs = true
		}
		ti, fsi := runCfg(cfg)
		verify(fsi, cfg)
		if ti > tAll*1.0001 {
			t.Fatalf("toggle %d increased write time: %.5fs vs %.5fs", i, ti, tAll)
		}
	}
}

func TestAlignedDatasetsAreAligned(t *testing.T) {
	cfg := DefaultConfig()
	cfg.AlignData = true
	_, fs := runH5(t, 2, func(r *mpi.Rank, fs pfs.FileSystem) {
		h, _ := Create(r, fs, "al.h5", cfg, mpiio.DefaultHints())
		for i := 0; i < 3; i++ {
			ds, err := h.CreateDataset(fmt.Sprintf("d%d", i), []int{100}, 4)
			if err != nil {
				panic(err)
			}
			if ds.info.DataOff%cfg.AlignBoundary != 0 {
				panic(fmt.Sprintf("dataset %d at unaligned offset %d", i, ds.info.DataOff))
			}
			ds.Close()
		}
		h.Close()
	})
	_ = fs
}
