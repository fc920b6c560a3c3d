package mpiio

import (
	"bytes"
	"fmt"
	"testing"

	"repro/internal/machine"
	"repro/internal/mpi"
	"repro/internal/pfs"
	"repro/internal/sim"
)

// seedFile fills name with the global pattern from rank 0 and barriers, so
// every read test starts from identical file contents.
func seedFile(r *mpi.Rank, f *File, global []byte) {
	if r.Rank() == 0 {
		f.WriteAt(global, 0)
	}
	r.Barrier()
}

func TestIreadAtMatchesReadAt(t *testing.T) {
	const n = 1 << 20
	global := pattern(3, n)
	var blocking, deferred []byte
	for _, async := range []bool{false, true} {
		buf := make([]byte, n)
		runPVFS(t, 1, func(r *mpi.Rank, fs pfs.FileSystem) {
			f, err := Open(r, fs, "f.dat", ModeCreate, DefaultHints())
			if err != nil {
				panic(err)
			}
			seedFile(r, f, global)
			if async {
				p := f.IssueReadAt(true, buf, 0)
				if p.Completion() < r.Now() {
					panic("completion before issue")
				}
				// The buffer is filled at issue in the store's state, but the
				// caller may only look after Wait.
				r.Compute(1_000_000)
				p.Wait()
				p.Wait() // idempotent
			} else {
				f.ReadAt(buf, 0)
			}
			f.Close()
		})
		if async {
			deferred = buf
		} else {
			blocking = buf
		}
	}
	if !bytes.Equal(blocking, global) {
		t.Fatal("blocking reference read wrong bytes")
	}
	if !bytes.Equal(deferred, blocking) {
		t.Fatal("IreadAt returned different bytes than ReadAt")
	}
}

func TestIreadRunsMatchesReadRuns(t *testing.T) {
	runs := []mpi.Run{{Off: 0, Len: 512}, {Off: 4096, Len: 1024}, {Off: 16384, Len: 256}}
	global := pattern(5, 16384+256)
	var want, got []byte
	for _, async := range []bool{false, true} {
		buf := make([]byte, mpi.TotalLen(runs))
		runPVFS(t, 1, func(r *mpi.Rank, fs pfs.FileSystem) {
			f, err := Open(r, fs, "r.dat", ModeCreate, DefaultHints())
			if err != nil {
				panic(err)
			}
			seedFile(r, f, global)
			if async {
				f.IssueReadRuns(true, runs, buf).Wait()
			} else {
				f.ReadRuns(runs, buf)
			}
			f.Close()
		})
		if async {
			got = buf
		} else {
			want = buf
		}
	}
	if !bytes.Equal(want, got) {
		t.Fatal("IreadRuns returned different bytes than ReadRuns")
	}
}

// TestSplitReadMatchesBlocking: the split-collective read must return
// exactly the bytes of the blocking collective read for every cb_nodes in
// 1..np, interleaved layout included, with collective buffering both
// automatic and forced.
func TestSplitReadMatchesBlocking(t *testing.T) {
	const N = 16
	nprocs := 4
	pz, py, px := mpi.ProcGrid3D(nprocs)
	elem := 4
	global := make([]byte, N*N*N*elem)
	for i := range global {
		global[i] = byte(i*11 + 5)
	}
	for _, force := range []bool{false, true} {
		for cb := 1; cb <= nprocs; cb++ {
			force, cb := force, cb
			t.Run(fmt.Sprintf("force=%v/cb=%d", force, cb), func(t *testing.T) {
				read := func(split bool) [][]byte {
					bufs := make([][]byte, nprocs)
					runPVFS(t, nprocs, func(r *mpi.Rank, fs pfs.FileSystem) {
						hints := DefaultHints()
						hints.CBNodes = cb
						hints.CBForce = force
						f, err := Open(r, fs, "array.dat", ModeCreate, hints)
						if err != nil {
							panic(err)
						}
						seedFile(r, f, global)
						sub := mpi.BlockDecompose3D([3]int{N, N, N}, pz, py, px, r.Rank(), elem)
						buf := make([]byte, sub.Bytes())
						bufs[r.Rank()] = buf
						if split {
							sr := f.IssueReadAtAll(true, sub.Flatten(), buf)
							r.Compute(1_000_000)
							sr.Wait()
							sr.Wait() // idempotent
						} else {
							f.ReadAtAll(sub.Flatten(), buf)
						}
						f.Close()
					})
					return bufs
				}
				blocking, deferred := read(false), read(true)
				for rk := 0; rk < nprocs; rk++ {
					sub := mpi.BlockDecompose3D([3]int{N, N, N}, pz, py, px, rk, elem)
					if !bytes.Equal(blocking[rk], sub.GatherSub(global)) {
						t.Fatalf("rank %d: blocking reference read wrong bytes", rk)
					}
					if !bytes.Equal(deferred[rk], blocking[rk]) {
						t.Fatalf("rank %d: split read differs from blocking", rk)
					}
				}
			})
		}
	}
}

// TestSplitReadOverlapSavesTime: compute between Begin and End must beat
// compute after a blocking collective read.
func TestSplitReadOverlapSavesTime(t *testing.T) {
	const N = 16
	nprocs := 4
	pz, py, px := mpi.ProcGrid3D(nprocs)
	elem := 8
	global := pattern(1, N*N*N*elem)
	const work = 50_000_000
	run := func(split bool) float64 {
		ms, _ := runPVFS(t, nprocs, func(r *mpi.Rank, fs pfs.FileSystem) {
			f, err := Open(r, fs, "a.dat", ModeCreate, DefaultHints())
			if err != nil {
				panic(err)
			}
			seedFile(r, f, global)
			sub := mpi.BlockDecompose3D([3]int{N, N, N}, pz, py, px, r.Rank(), elem)
			buf := make([]byte, sub.Bytes())
			if split {
				sr := f.IssueReadAtAll(true, sub.Flatten(), buf)
				r.Compute(work)
				sr.Wait()
			} else {
				f.ReadAtAll(sub.Flatten(), buf)
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

func TestSplitReadEmptyRange(t *testing.T) {
	// All ranks contribute nothing: Begin degenerates to a barrier and End
	// is a no-op.
	runPVFS(t, 2, func(r *mpi.Rank, fs pfs.FileSystem) {
		f, err := Open(r, fs, "e.dat", ModeCreate, DefaultHints())
		if err != nil {
			panic(err)
		}
		sr := f.IssueReadAtAll(true, nil, nil)
		sr.Wait()
		sr.Wait() // idempotent
		f.Close()
	})
}

func TestSplitReadDeterministic(t *testing.T) {
	global := pattern(2, 4*3*8192)
	run := func() float64 {
		ms, _ := runPVFS(t, 4, func(r *mpi.Rank, fs pfs.FileSystem) {
			f, err := Open(r, fs, "d.dat", ModeCreate, DefaultHints())
			if err != nil {
				panic(err)
			}
			seedFile(r, f, global)
			for i := 0; i < 3; i++ {
				runs := []mpi.Run{{Off: int64(r.Rank()*3+i) * 8192, Len: 8192}}
				sr := f.IssueReadAtAll(true, runs, make([]byte, 8192))
				r.Compute(2_000_000)
				sr.Wait()
			}
			f.Close()
		})
		return ms
	}
	if a, b := run(), run(); a != b {
		t.Fatalf("nondeterministic: %g vs %g", a, b)
	}
}

// TestSplitReadPreservesArrivalInvariant: deferred reads are charged at
// issue, so settling late must not disturb a later blocking read's device
// schedule.
func TestSplitReadPreservesArrivalInvariant(t *testing.T) {
	global := pattern(4, 256<<10)
	run := func(work int64) float64 {
		ms, _ := runPVFS(t, 2, func(r *mpi.Rank, fs pfs.FileSystem) {
			f, err := Open(r, fs, "inv.dat", ModeCreate, DefaultHints())
			if err != nil {
				panic(err)
			}
			seedFile(r, f, global)
			runs := []mpi.Run{{Off: int64(r.Rank()) * 65536, Len: 65536}}
			sr := f.IssueReadAtAll(true, runs, make([]byte, 65536))
			r.Compute(work)
			sr.Wait()
			f.ReadAt(make([]byte, 4096), int64(200000+r.Rank()*4096))
			f.Close()
		})
		return ms
	}
	a := run(80_000_000)
	b := run(80_000_001)
	if diff := b - a; diff < 0 || diff > 1e-6 {
		t.Fatalf("arrival invariant violated: makespans %g vs %g", a, b)
	}
}

// TestIreadInteropWithMessaging interleaves nonblocking file reads with
// nonblocking point-to-point messaging — the restart pipeline's shape,
// where a rank prefetches its next grid while exchanging particle rows.
func TestIreadInteropWithMessaging(t *testing.T) {
	const per = 64 << 10
	nprocs := 4
	global := make([]byte, nprocs*per)
	for rk := 0; rk < nprocs; rk++ {
		copy(global[rk*per:], pattern(rk, per))
	}
	okRead := make([]bool, nprocs)
	okMsg := make([]bool, nprocs)
	runPVFS(t, nprocs, func(r *mpi.Rank, fs pfs.FileSystem) {
		f, err := Open(r, fs, "x.dat", ModeCreate, DefaultHints())
		if err != nil {
			panic(err)
		}
		seedFile(r, f, global)
		buf := make([]byte, per)
		rd := f.IssueReadAt(true, buf, int64(r.Rank())*per)
		// With the read in flight, exchange a ring message nonblockingly.
		next := (r.Rank() + 1) % r.Size()
		prev := (r.Rank() + r.Size() - 1) % r.Size()
		rq := r.Irecv(prev, 7)
		sq := r.Isend(next, 7, pattern(100+r.Rank(), 1024))
		got, _, _ := rq.Wait()
		sq.Wait()
		rd.Wait()
		okMsg[r.Rank()] = bytes.Equal(got, pattern(100+prev, 1024))
		okRead[r.Rank()] = bytes.Equal(buf, pattern(r.Rank(), per))
		f.Close()
	})
	for rk := 0; rk < nprocs; rk++ {
		if !okRead[rk] {
			t.Fatalf("rank %d: deferred read corrupted by interleaved messaging", rk)
		}
		if !okMsg[rk] {
			t.Fatalf("rank %d: ring message corrupted by interleaved deferred read", rk)
		}
	}
}

// TestIreadOnEveryFileSystem: every fs kind must round-trip deferred reads.
func TestIreadOnEveryFileSystem(t *testing.T) {
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
			buf := make([]byte, len(data))
			mpi.NewWorld(eng, mach, 1, func(r *mpi.Rank) {
				f, err := Open(r, fs, "f.dat", ModeCreate, DefaultHints())
				if err != nil {
					panic(err)
				}
				f.WriteAt(data, 0)
				p := f.IssueReadAt(true, buf, 0)
				r.Compute(10_000_000)
				p.Wait()
				f.Close()
			})
			if err := eng.Run(); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(buf, data) {
				t.Fatalf("%s: deferred read returned wrong bytes", kind)
			}
		})
	}
}

// TestHintsNormalizeClamps: Open must sanitize nonsensical hint values the
// way ROMIO does, on both the collective and independent open paths, so
// downstream chunk loops and retry backoff never see them.
func TestHintsNormalizeClamps(t *testing.T) {
	h := Hints{
		CBBufferSize: -1,
		CBNodes:      -3,
		DSBufferSize: 0,
		DataSieving:  true,
		MinFDSize:    -5,
		Retry: RetryPolicy{
			Enabled: true, Timeout: 0, MaxAttempts: 0,
			Backoff: -1, Multiplier: 0.5, JitterFrac: -0.25,
		},
	}
	h.normalize()
	if h.CBBufferSize <= 0 || h.DSBufferSize <= 0 {
		t.Fatalf("buffer sizes not clamped: cb=%d ds=%d", h.CBBufferSize, h.DSBufferSize)
	}
	if h.CBNodes != 0 {
		t.Fatalf("negative CBNodes not clamped to automatic: %d", h.CBNodes)
	}
	if h.MinFDSize != 0 {
		t.Fatalf("negative MinFDSize not clamped: %d", h.MinFDSize)
	}
	if h.Retry.MaxAttempts < 1 || h.Retry.Timeout <= 0 ||
		h.Retry.Backoff < 0 || h.Retry.Multiplier < 1 || h.Retry.JitterFrac < 0 {
		t.Fatalf("retry policy not normalized: %+v", h.Retry)
	}
}

// TestZeroSieveBufferDoesNotHang is the satellite regression for the hint
// audit: a zero sieve buffer with data sieving enabled used to send
// ReadRuns' chunk loop into a zero-advance spin; normalized hints must make
// the same open behave like the default sieve buffer.
func TestZeroSieveBufferDoesNotHang(t *testing.T) {
	runs := []mpi.Run{{Off: 0, Len: 512}, {Off: 2048, Len: 512}, {Off: 8192, Len: 512}}
	global := pattern(6, 16<<10)
	buf := make([]byte, mpi.TotalLen(runs))
	runPVFS(t, 1, func(r *mpi.Rank, fs pfs.FileSystem) {
		h := DefaultHints()
		h.DSBufferSize = 0 // nonsensical: sieving with no buffer
		h.DataSieving = true
		f, err := OpenIndependent(r, fs, "s.dat", ModeCreate, h)
		if err != nil {
			panic(err)
		}
		f.WriteAt(global, 0)
		f.ReadRuns(runs, buf)
		f.Close()
	})
	want := append(append(append([]byte{}, global[:512]...), global[2048:2560]...), global[8192:8704]...)
	if !bytes.Equal(buf, want) {
		t.Fatal("sieved read with clamped buffer returned wrong bytes")
	}
}

// TestNegativeBackoffDoesNotPanic is the satellite regression for the retry
// audit: a negative backoff or jitter used to compute a negative wait and
// panic the engine on the first retried request; the normalized policy
// clamps both.
func TestNegativeBackoffDoesNotPanic(t *testing.T) {
	h := DefaultHints()
	h.Retry = RetryPolicy{
		Enabled: true, Timeout: 2e-3, MaxAttempts: 20,
		Backoff: -1e-3, Multiplier: 2, JitterFrac: -0.5,
	}
	eng := sim.NewEngine()
	mach := machine.New(testMachineCfg())
	fs := pfs.NewPVFS(mach, pfs.DefaultPVFS())
	// A 10x-degraded server forces timeouts, so the (clamped) backoff path
	// actually runs.
	fs.DegradeDataServer(0, 10)
	data := pattern(8, 256<<10)
	buf := make([]byte, len(data))
	mpi.NewWorld(eng, mach, 1, func(r *mpi.Rank) {
		f, err := Open(r, fs, "nb.dat", ModeCreate, h)
		if err != nil {
			panic(err)
		}
		f.WriteAt(data, 0)
		f.ReadAt(buf, 0)
		f.Close()
	})
	if err := eng.Run(); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf, data) {
		t.Fatal("retried read returned wrong bytes")
	}
}
