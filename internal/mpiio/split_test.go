package mpiio

import (
	"bytes"
	"testing"

	"repro/internal/machine"
	"repro/internal/mpi"
	"repro/internal/pfs"
	"repro/internal/sim"
)

// runPVFS is runIO on a PVFS volume (every model takes Behind requests;
// PVFS exercises the striped multi-server path).
func runPVFS(t *testing.T, nprocs int, body func(r *mpi.Rank, fs pfs.FileSystem)) (float64, pfs.FileSystem) {
	t.Helper()
	eng := sim.NewEngine()
	mach := machine.New(testMachineCfg())
	fs := pfs.NewPVFS(mach, pfs.DefaultPVFS())
	mpi.NewWorld(eng, mach, nprocs, func(r *mpi.Rank) { body(r, fs) })
	if err := eng.Run(); err != nil {
		t.Fatal(err)
	}
	return eng.MaxTime(), fs
}

func TestSplitCollectiveMatchesBlocking(t *testing.T) {
	// The split-collective write must leave exactly the bytes of the
	// blocking collective write, interleaved layout included.
	const N = 16
	nprocs := 4
	pz, py, px := mpi.ProcGrid3D(nprocs)
	elem := 4
	fileSize := int64(N * N * N * elem)
	global := make([]byte, fileSize)
	for i := range global {
		global[i] = byte(i*11 + 5)
	}

	write := func(split bool) []byte {
		_, fs := runPVFS(t, nprocs, func(r *mpi.Rank, fs pfs.FileSystem) {
			sub := mpi.BlockDecompose3D([3]int{N, N, N}, pz, py, px, r.Rank(), elem)
			mine := sub.GatherSub(global)
			f, err := Open(r, fs, "array.dat", ModeCreate, DefaultHints())
			if err != nil {
				panic(err)
			}
			if split {
				sw := f.WriteAtAllBegin(sub.Flatten(), mine)
				r.Compute(1_000_000)
				sw.Wait()
			} else {
				f.WriteAtAll(sub.Flatten(), mine)
			}
			f.Close()
		})
		return readWholeFile(t, fs, "array.dat", fileSize)
	}
	blocking, deferred := write(false), write(true)
	if !bytes.Equal(blocking, global) {
		t.Fatal("blocking reference produced wrong file")
	}
	if !bytes.Equal(deferred, blocking) {
		t.Fatal("split-collective write produced different bytes than blocking")
	}
}

func TestSplitCollectiveOverlapSavesTime(t *testing.T) {
	// compute-after-write (blocking) vs compute-between-begin-and-end: the
	// overlapped run must be strictly faster, and never slower.
	const N = 16
	nprocs := 4
	pz, py, px := mpi.ProcGrid3D(nprocs)
	elem := 8
	const work = 50_000_000

	run := func(split bool) float64 {
		ms, _ := runPVFS(t, nprocs, func(r *mpi.Rank, fs pfs.FileSystem) {
			sub := mpi.BlockDecompose3D([3]int{N, N, N}, pz, py, px, r.Rank(), elem)
			mine := pattern(r.Rank(), int(sub.Bytes()))
			f, err := Open(r, fs, "a.dat", ModeCreate, DefaultHints())
			if err != nil {
				panic(err)
			}
			if split {
				sw := f.WriteAtAllBegin(sub.Flatten(), mine)
				r.Compute(work)
				sw.Wait()
			} else {
				f.WriteAtAll(sub.Flatten(), mine)
				r.Compute(work)
			}
			f.Close()
		})
		return ms
	}
	blocking, overlapped := run(false), run(true)
	if overlapped >= blocking {
		t.Fatalf("overlapped makespan %g not below blocking %g", overlapped, blocking)
	}
}

func TestIwriteAtMatchesWriteAt(t *testing.T) {
	const n = 1 << 20
	data := pattern(3, n)
	var blocking, deferred []byte
	for _, async := range []bool{false, true} {
		_, fs := runPVFS(t, 1, func(r *mpi.Rank, fs pfs.FileSystem) {
			f, err := Open(r, fs, "f.dat", ModeCreate, DefaultHints())
			if err != nil {
				panic(err)
			}
			if async {
				p := f.IwriteAt(data, 0)
				if p.Completion() < r.Now() {
					panic("completion before issue")
				}
				r.Compute(1_000_000)
				p.Wait()
				p.Wait() // idempotent
			} else {
				f.WriteAt(data, 0)
			}
			f.Close()
		})
		got := readWholeFile(t, fs, "f.dat", n)
		if async {
			deferred = got
		} else {
			blocking = got
		}
	}
	if !bytes.Equal(blocking, deferred) {
		t.Fatal("IwriteAt stored different bytes than WriteAt")
	}
}

func TestIwriteRunsMatchesWriteRuns(t *testing.T) {
	runs := []mpi.Run{{Off: 0, Len: 512}, {Off: 4096, Len: 1024}, {Off: 16384, Len: 256}}
	data := pattern(5, int(mpi.TotalLen(runs)))
	const size = 16384 + 256
	var want, got []byte
	for _, async := range []bool{false, true} {
		_, fs := runPVFS(t, 1, func(r *mpi.Rank, fs pfs.FileSystem) {
			f, err := Open(r, fs, "r.dat", ModeCreate, DefaultHints())
			if err != nil {
				panic(err)
			}
			if async {
				f.IwriteRuns(runs, data).Wait()
			} else {
				f.WriteRuns(runs, data)
			}
			f.Close()
		})
		if async {
			got = readWholeFile(t, fs, "r.dat", size)
		} else {
			want = readWholeFile(t, fs, "r.dat", size)
		}
	}
	if !bytes.Equal(want, got) {
		t.Fatal("IwriteRuns stored different bytes than WriteRuns")
	}
}

func TestSplitCollectiveEveryCBNodes(t *testing.T) {
	// Property: for every cb_nodes in 1..np the split-collective write
	// (with collective buffering forced, so two-phase always runs) leaves
	// identical file bytes.
	const N = 12
	nprocs := 4
	pz, py, px := mpi.ProcGrid3D(nprocs)
	elem := 4
	fileSize := int64(N * N * N * elem)
	global := make([]byte, fileSize)
	for i := range global {
		global[i] = byte(i*13 + 1)
	}
	var want []byte
	for cb := 1; cb <= nprocs; cb++ {
		hints := DefaultHints()
		hints.CBNodes = cb
		hints.CBForce = true
		_, fs := runPVFS(t, nprocs, func(r *mpi.Rank, fs pfs.FileSystem) {
			sub := mpi.BlockDecompose3D([3]int{N, N, N}, pz, py, px, r.Rank(), elem)
			mine := sub.GatherSub(global)
			f, err := Open(r, fs, "cb.dat", ModeCreate, hints)
			if err != nil {
				panic(err)
			}
			sw := f.WriteAtAllBegin(sub.Flatten(), mine)
			r.Compute(int64(1000 * (r.Rank() + 1))) // skewed overlap
			sw.Wait()
			f.Close()
		})
		got := readWholeFile(t, fs, "cb.dat", fileSize)
		if want == nil {
			want = got
			if !bytes.Equal(want, global) {
				t.Fatal("cb_nodes=1 split write produced wrong file")
			}
			continue
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("cb_nodes=%d produced different bytes than cb_nodes=1", cb)
		}
	}
}

func TestSplitCollectiveInterleavedCollectives(t *testing.T) {
	// Between Begin and End every rank may run other collectives in the
	// same SPMD order (the dump pipeline creates datasets while a previous
	// write drains); clocks must stay consistent and bytes correct.
	nprocs := 3
	const chunk = 4096
	_, fs := runPVFS(t, nprocs, func(r *mpi.Rank, fs pfs.FileSystem) {
		f, err := Open(r, fs, "x.dat", ModeCreate, DefaultHints())
		if err != nil {
			panic(err)
		}
		runs := []mpi.Run{{Off: int64(r.Rank()) * chunk, Len: chunk}}
		sw := f.WriteAtAllBegin(runs, pattern(r.Rank(), chunk))
		r.Barrier()
		r.AllreduceFloat64(float64(r.Rank()), mpi.OpMax)
		sw.Wait()
		f.Close()
	})
	got := readWholeFile(t, fs, "x.dat", int64(nprocs)*chunk)
	for rk := 0; rk < nprocs; rk++ {
		if !bytes.Equal(got[rk*chunk:(rk+1)*chunk], pattern(rk, chunk)) {
			t.Fatalf("rank %d chunk corrupted", rk)
		}
	}
}

func TestSplitCollectiveEmptyRange(t *testing.T) {
	// All ranks contribute nothing: Begin degenerates to a barrier and End
	// is a no-op; the file stays empty.
	nprocs := 2
	_, fs := runPVFS(t, nprocs, func(r *mpi.Rank, fs pfs.FileSystem) {
		f, err := Open(r, fs, "e.dat", ModeCreate, DefaultHints())
		if err != nil {
			panic(err)
		}
		sw := f.WriteAtAllBegin(nil, nil)
		sw.Wait()
		sw.Wait() // idempotent
		f.Close()
	})
	if got := readWholeFile(t, fs, "e.dat", 0); len(got) != 0 {
		t.Fatalf("empty collective wrote %d bytes", len(got))
	}
}

func TestSplitDeterministic(t *testing.T) {
	run := func() float64 {
		ms, _ := runPVFS(t, 4, func(r *mpi.Rank, fs pfs.FileSystem) {
			f, err := Open(r, fs, "d.dat", ModeCreate, DefaultHints())
			if err != nil {
				panic(err)
			}
			for i := 0; i < 3; i++ {
				runs := []mpi.Run{{Off: int64(r.Rank()*3+i) * 8192, Len: 8192}}
				sw := f.WriteAtAllBegin(runs, pattern(r.Rank()+i, 8192))
				r.Compute(2_000_000)
				sw.Wait()
			}
			f.Close()
		})
		return ms
	}
	if a, b := run(), run(); a != b {
		t.Fatalf("nondeterministic: %g vs %g", a, b)
	}
}

func TestIwriteOnEveryFileSystem(t *testing.T) {
	// Every fs kind must round-trip deferred (pfs.Behind) writes.
	mk := func(kind string, mach *machine.Machine) pfs.FileSystem {
		switch kind {
		case "xfs":
			return pfs.NewXFS(mach, pfs.DefaultXFS())
		case "gpfs":
			return pfs.NewGPFS(mach, pfs.DefaultGPFS())
		case "pvfs":
			return pfs.NewPVFS(mach, pfs.DefaultPVFS())
		case "local":
			return pfs.NewLocalFS(mach, pfs.DefaultLocal())
		}
		panic(kind)
	}
	for _, kind := range []string{"xfs", "gpfs", "pvfs", "local"} {
		kind := kind
		t.Run(kind, func(t *testing.T) {
			eng := sim.NewEngine()
			mach := machine.New(testMachineCfg())
			fs := mk(kind, mach)
			data := pattern(7, 128<<10)
			mpi.NewWorld(eng, mach, 1, func(r *mpi.Rank) {
				f, err := Open(r, fs, "f.dat", ModeCreate, DefaultHints())
				if err != nil {
					panic(err)
				}
				p := f.IwriteAt(data, 0)
				r.Compute(10_000_000)
				p.Wait()
				f.Close()
			})
			if err := eng.Run(); err != nil {
				t.Fatal(err)
			}
			got := readWholeFile(t, fs, "f.dat", int64(len(data)))
			if !bytes.Equal(got, data) {
				t.Fatalf("%s: deferred write corrupted the file", kind)
			}
		})
	}
}

func TestSplitWritePreservesArrivalInvariant(t *testing.T) {
	// Settling a split write long after issue must not disturb later
	// writes' server arrivals: a following blocking write's completion is
	// identical whether the earlier deferred write was settled early or
	// late. (Deferred requests are charged at issue, so this holds by
	// construction — the test pins it.)
	run := func(work int64) float64 {
		ms, _ := runPVFS(t, 2, func(r *mpi.Rank, fs pfs.FileSystem) {
			f, err := Open(r, fs, "inv.dat", ModeCreate, DefaultHints())
			if err != nil {
				panic(err)
			}
			runs := []mpi.Run{{Off: int64(r.Rank()) * 65536, Len: 65536}}
			sw := f.WriteAtAllBegin(runs, pattern(r.Rank(), 65536))
			r.Compute(work)
			sw.Wait()
			f.WriteAt(pattern(9, 4096), int64(200000+r.Rank()*4096))
			f.Close()
		})
		return ms
	}
	// Different overlap amounts change when End settles, but the second
	// write's device schedule was fixed at issue either way; with work
	// long enough to cover the deferred I/O the makespan is compute-bound
	// and equal for both.
	a := run(80_000_000)
	b := run(80_000_001)
	if diff := b - a; diff < 0 || diff > 1e-6 {
		t.Fatalf("arrival invariant violated: makespans %g vs %g", a, b)
	}
}
