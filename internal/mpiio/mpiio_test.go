package mpiio

import (
	"bytes"
	"fmt"
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/machine"
	"repro/internal/mpi"
	"repro/internal/pfs"
	"repro/internal/sim"
)

func testMachineCfg() machine.Config {
	return machine.Config{
		Name: "t", Nodes: 16, ProcsPerNode: 1,
		WireLatency: 20e-6, LinkBW: 200e6, SendOverhead: 2e-6, RecvOverhead: 2e-6,
		MemLatency: 1e-6, MemCopyBW: 1e9, ComputeRate: 1e9,
	}
}

// runIO builds a world with an XFS file system and runs body on each rank.
func runIO(t *testing.T, nprocs int, body func(r *mpi.Rank, fs pfs.FileSystem)) (float64, pfs.FileSystem) {
	t.Helper()
	eng := sim.NewEngine()
	mach := machine.New(testMachineCfg())
	fs := pfs.NewXFS(mach, pfs.DefaultXFS())
	mpi.NewWorld(eng, mach, nprocs, func(r *mpi.Rank) { body(r, fs) })
	if err := eng.Run(); err != nil {
		t.Fatal(err)
	}
	return eng.MaxTime(), fs
}

// readWholeFile reads a file's contents outside of timing concerns.
func readWholeFile(t *testing.T, fs pfs.FileSystem, name string, size int64) []byte {
	t.Helper()
	eng := sim.NewEngine()
	out := make([]byte, size)
	eng.Spawn("reader", func(p *sim.Proc) {
		c := pfs.Client{Proc: p, Node: 0}
		f, err := fs.Open(c, name)
		if err != nil {
			panic(err)
		}
		f.ReadAt(c, out, 0)
	})
	if err := eng.Run(); err != nil {
		t.Fatal(err)
	}
	return out
}

func pattern(rank int, n int) []byte {
	out := make([]byte, n)
	for i := range out {
		out[i] = byte(rank*31 + i%97 + 1)
	}
	return out
}

func TestCollectiveWriteBBBRoundTrip(t *testing.T) {
	// 4 ranks write a 16x16x16 array of 4-byte cells in (Block,Block,Block)
	// decomposition to a shared file; the file must equal the serial
	// reference, and a collective read must return each rank its block.
	const N = 16
	nprocs := 4
	pz, py, px := mpi.ProcGrid3D(nprocs)
	elem := 4
	fileSize := int64(N * N * N * elem)

	// Serial reference: a global array where cell (z,y,x) holds a value
	// derived from its coordinates.
	global := make([]byte, fileSize)
	for i := range global {
		global[i] = byte(i*7 + 3)
	}

	readBack := make([][]byte, nprocs)
	_, fs := runIO(t, nprocs, func(r *mpi.Rank, fs pfs.FileSystem) {
		sub := mpi.BlockDecompose3D([3]int{N, N, N}, pz, py, px, r.Rank(), elem)
		mine := sub.GatherSub(global)
		f, err := Open(r, fs, "array.dat", ModeCreate, DefaultHints())
		if err != nil {
			panic(err)
		}
		f.WriteAtAll(sub.Flatten(), mine)
		// Collective read back.
		buf := make([]byte, len(mine))
		f.ReadAtAll(sub.Flatten(), buf)
		readBack[r.Rank()] = buf
		if !bytes.Equal(buf, mine) {
			panic(fmt.Sprintf("rank %d read-back mismatch", r.Rank()))
		}
		f.Close()
	})

	got := readWholeFile(t, fs, "array.dat", fileSize)
	if !bytes.Equal(got, global) {
		t.Fatal("collective write produced wrong file contents")
	}
}

func TestCollectiveWriteVariousProcCounts(t *testing.T) {
	for _, nprocs := range []int{1, 2, 3, 5, 8} {
		nprocs := nprocs
		t.Run(fmt.Sprintf("np%d", nprocs), func(t *testing.T) {
			const N = 12
			pz, py, px := mpi.ProcGrid3D(nprocs)
			elem := 8
			fileSize := int64(N * N * N * elem)
			global := make([]byte, fileSize)
			rand.New(rand.NewSource(int64(nprocs))).Read(global)
			_, fs := runIO(t, nprocs, func(r *mpi.Rank, fs pfs.FileSystem) {
				sub := mpi.BlockDecompose3D([3]int{N, N, N}, pz, py, px, r.Rank(), elem)
				f, err := Open(r, fs, "a", ModeCreate, DefaultHints())
				if err != nil {
					panic(err)
				}
				f.WriteAtAll(sub.Flatten(), sub.GatherSub(global))
				f.Close()
			})
			got := readWholeFile(t, fs, "a", fileSize)
			if !bytes.Equal(got, global) {
				t.Fatal("file contents wrong")
			}
		})
	}
}

func TestCollectiveReadMatchesIndependentRead(t *testing.T) {
	const N = 10
	nprocs := 4
	pz, py, px := mpi.ProcGrid3D(nprocs)
	elem := 4
	fileSize := int64(N * N * N * elem)
	global := make([]byte, fileSize)
	rand.New(rand.NewSource(5)).Read(global)
	_, _ = pz, py
	runIO(t, nprocs, func(r *mpi.Rank, fs pfs.FileSystem) {
		f, err := Open(r, fs, "b", ModeCreate, DefaultHints())
		if err != nil {
			panic(err)
		}
		if r.Rank() == 0 {
			f.WriteAt(global, 0)
		}
		r.Barrier()
		sub := mpi.BlockDecompose3D([3]int{N, N, N}, pz, py, px, r.Rank(), elem)
		collective := make([]byte, sub.Bytes())
		f.ReadAtAll(sub.Flatten(), collective)
		independent := make([]byte, sub.Bytes())
		f.ReadRuns(sub.Flatten(), independent)
		if !bytes.Equal(collective, independent) {
			panic(fmt.Sprintf("rank %d: collective and independent reads differ", r.Rank()))
		}
		if !bytes.Equal(collective, sub.GatherSub(global)) {
			panic(fmt.Sprintf("rank %d: read data wrong", r.Rank()))
		}
		f.Close()
	})
}

func TestDataSievingReadCorrectAndFewerRequests(t *testing.T) {
	// Write a file serially, then read a strided pattern with and without
	// data sieving: contents must match; sieving must issue fewer, larger
	// requests.
	fileSize := int64(1 << 20)
	content := make([]byte, fileSize)
	rand.New(rand.NewSource(9)).Read(content)

	var runs []mpi.Run
	for off := int64(0); off+64 <= fileSize; off += 4096 {
		runs = append(runs, mpi.Run{Off: off, Len: 64})
	}
	want := make([]byte, mpi.TotalLen(runs))
	var p int64
	for _, run := range runs {
		copy(want[p:], content[run.Off:run.Off+run.Len])
		p += run.Len
	}

	read := func(sieve bool) (got []byte, reqs int64) {
		eng := sim.NewEngine()
		mach := machine.New(testMachineCfg())
		fs := pfs.NewXFS(mach, pfs.DefaultXFS())
		got = make([]byte, mpi.TotalLen(runs))
		mpi.NewWorld(eng, mach, 1, func(r *mpi.Rank) {
			h := DefaultHints()
			h.DataSieving = sieve
			f, err := Open(r, fs, "s", ModeCreate, h)
			if err != nil {
				panic(err)
			}
			f.WriteAt(content, 0)
			base := fs.Stats().ReadReqs
			f.ReadRuns(runs, got)
			reqs = fs.Stats().ReadReqs - base
			f.Close()
		})
		if err := eng.Run(); err != nil {
			t.Fatal(err)
		}
		return got, reqs
	}

	gotSieve, reqsSieve := read(true)
	gotPlain, reqsPlain := read(false)
	if !bytes.Equal(gotSieve, want) {
		t.Fatal("sieving read returned wrong data")
	}
	if !bytes.Equal(gotPlain, want) {
		t.Fatal("per-run read returned wrong data")
	}
	if reqsSieve >= reqsPlain/10 {
		t.Fatalf("sieving used %d requests vs %d plain: not enough coalescing", reqsSieve, reqsPlain)
	}
}

func TestWriteRunsIndependent(t *testing.T) {
	runs := []mpi.Run{{Off: 10, Len: 5}, {Off: 100, Len: 7}, {Off: 200, Len: 3}}
	data := pattern(1, int(mpi.TotalLen(runs)))
	_, fs := runIO(t, 1, func(r *mpi.Rank, fs pfs.FileSystem) {
		f, err := Open(r, fs, "w", ModeCreate, DefaultHints())
		if err != nil {
			panic(err)
		}
		f.WriteRuns(runs, data)
		f.Close()
	})
	got := readWholeFile(t, fs, "w", 203)
	var p int64
	for _, run := range runs {
		if !bytes.Equal(got[run.Off:run.Off+run.Len], data[p:p+run.Len]) {
			t.Fatalf("run at %d mismatch", run.Off)
		}
		p += run.Len
	}
	// Holes stay zero.
	for _, hole := range []int64{0, 50, 150} {
		if got[hole] != 0 {
			t.Fatalf("hole at %d overwritten", hole)
		}
	}
}

func TestOpenReadMissingFails(t *testing.T) {
	runIO(t, 2, func(r *mpi.Rank, fs pfs.FileSystem) {
		_, err := Open(r, fs, "missing", ModeRead, DefaultHints())
		if err == nil {
			panic("expected error")
		}
		r.Barrier()
	})
}

func TestCollectiveWriteWithRanklessParticipants(t *testing.T) {
	// Ranks 2,3 contribute nothing but still participate collectively.
	nprocs := 4
	data := pattern(7, 1000)
	_, fs := runIO(t, nprocs, func(r *mpi.Rank, fs pfs.FileSystem) {
		f, err := Open(r, fs, "partial", ModeCreate, DefaultHints())
		if err != nil {
			panic(err)
		}
		if r.Rank() < 2 {
			off := int64(r.Rank()) * 500
			f.WriteAtAll([]mpi.Run{{Off: off, Len: 500}}, data[off:off+500])
		} else {
			f.WriteAtAll(nil, nil)
		}
		f.Close()
	})
	got := readWholeFile(t, fs, "partial", 1000)
	if !bytes.Equal(got, data) {
		t.Fatal("partial-participation collective write wrong")
	}
}

func TestCollectiveNoDataAtAll(t *testing.T) {
	runIO(t, 3, func(r *mpi.Rank, fs pfs.FileSystem) {
		f, err := Open(r, fs, "empty", ModeCreate, DefaultHints())
		if err != nil {
			panic(err)
		}
		f.WriteAtAll(nil, nil)
		f.ReadAtAll(nil, nil)
		f.Close()
	})
}

func TestCBNodesLimitsAggregators(t *testing.T) {
	// With cb_nodes=1 all data funnels through rank 0; the file contents
	// must still be right.
	nprocs := 4
	per := 1 << 16
	_, fs := runIO(t, nprocs, func(r *mpi.Rank, fs pfs.FileSystem) {
		h := DefaultHints()
		h.CBNodes = 1
		f, err := Open(r, fs, "cb1", ModeCreate, h)
		if err != nil {
			panic(err)
		}
		off := int64(r.Rank() * per)
		f.WriteAtAll([]mpi.Run{{Off: off, Len: int64(per)}}, pattern(r.Rank(), per))
		f.Close()
	})
	got := readWholeFile(t, fs, "cb1", int64(nprocs*per))
	for rank := 0; rank < nprocs; rank++ {
		want := pattern(rank, per)
		if !bytes.Equal(got[rank*per:(rank+1)*per], want) {
			t.Fatalf("rank %d region wrong under cb_nodes=1", rank)
		}
	}
}

func TestInterleavedFineGrainedCollectiveWrite(t *testing.T) {
	// Ranks interleave 64-byte pieces: rank r owns piece i where i%P==r.
	nprocs := 4
	const pieceLen = 64
	const pieces = 512
	fileSize := int64(pieceLen * pieces)
	_, fs := runIO(t, nprocs, func(r *mpi.Rank, fs pfs.FileSystem) {
		f, err := Open(r, fs, "ilv", ModeCreate, DefaultHints())
		if err != nil {
			panic(err)
		}
		var runs []mpi.Run
		var data []byte
		for i := r.Rank(); i < pieces; i += nprocs {
			runs = append(runs, mpi.Run{Off: int64(i * pieceLen), Len: pieceLen})
			data = append(data, bytes.Repeat([]byte{byte(r.Rank() + 1)}, pieceLen)...)
		}
		f.WriteAtAll(runs, data)
		f.Close()
	})
	got := readWholeFile(t, fs, "ilv", fileSize)
	for i := 0; i < pieces; i++ {
		want := byte(i%nprocs + 1)
		for j := 0; j < pieceLen; j++ {
			if got[i*pieceLen+j] != want {
				t.Fatalf("piece %d byte %d = %d, want %d", i, j, got[i*pieceLen+j], want)
			}
		}
	}
}

func TestCollectiveBeatsNaiveIndependentForInterleaved(t *testing.T) {
	// The paper's core claim for regular patterns: two-phase collective
	// I/O beats naive per-run independent I/O when each process has many
	// small noncontiguous pieces.
	nprocs := 8
	const pieceLen = 128
	const pieces = 2048
	build := func(r *mpi.Rank) ([]mpi.Run, []byte) {
		var runs []mpi.Run
		for i := r.Rank(); i < pieces; i += nprocs {
			runs = append(runs, mpi.Run{Off: int64(i * pieceLen), Len: pieceLen})
		}
		return runs, make([]byte, mpi.TotalLen(runs))
	}
	collective, _ := runIO(t, nprocs, func(r *mpi.Rank, fs pfs.FileSystem) {
		f, _ := Open(r, fs, "x", ModeCreate, DefaultHints())
		runs, data := build(r)
		f.WriteAtAll(runs, data)
		f.Close()
	})
	independent, _ := runIO(t, nprocs, func(r *mpi.Rank, fs pfs.FileSystem) {
		f, _ := Open(r, fs, "x", ModeCreate, DefaultHints())
		runs, data := build(r)
		f.WriteRuns(runs, data)
		f.Close()
	})
	if collective >= independent {
		t.Fatalf("collective %.4fs not faster than independent %.4fs", collective, independent)
	}
}

func TestOpenIndependentPerProcessFiles(t *testing.T) {
	nprocs := 3
	_, fs := runIO(t, nprocs, func(r *mpi.Rank, fs pfs.FileSystem) {
		name := fmt.Sprintf("grid%d", r.Rank())
		f, err := OpenIndependent(r, fs, name, ModeCreate, DefaultHints())
		if err != nil {
			panic(err)
		}
		f.WriteAt(pattern(r.Rank(), 100), 0)
		f.Close()
	})
	for rank := 0; rank < nprocs; rank++ {
		got := readWholeFile(t, fs, fmt.Sprintf("grid%d", rank), 100)
		if !bytes.Equal(got, pattern(rank, 100)) {
			t.Fatalf("per-process file %d wrong", rank)
		}
	}
}

// Property: a random non-overlapping assignment of extents to ranks,
// written collectively, always reproduces the reference buffer.
func TestCollectiveWriteProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		nprocs := rng.Intn(6) + 1
		nPieces := rng.Intn(60) + 1
		pieceLen := rng.Intn(500) + 1
		fileSize := int64(nPieces * pieceLen)
		ref := make([]byte, fileSize)
		owner := make([]int, nPieces)
		for i := range owner {
			owner[i] = rng.Intn(nprocs)
			p := pattern(owner[i]+i, pieceLen)
			copy(ref[i*pieceLen:], p)
		}
		eng := sim.NewEngine()
		mach := machine.New(testMachineCfg())
		fs := pfs.NewXFS(mach, pfs.DefaultXFS())
		mpi.NewWorld(eng, mach, nprocs, func(r *mpi.Rank) {
			h := DefaultHints()
			h.CBBufferSize = int64(rng.Intn(4096) + 256) // small cb to exercise chunking
			fl, err := Open(r, fs, "p", ModeCreate, h)
			if err != nil {
				panic(err)
			}
			var runs []mpi.Run
			var data []byte
			for i := 0; i < nPieces; i++ {
				if owner[i] != r.Rank() {
					continue
				}
				runs = append(runs, mpi.Run{Off: int64(i * pieceLen), Len: int64(pieceLen)})
				data = append(data, ref[i*pieceLen:(i+1)*pieceLen]...)
			}
			fl.WriteAtAll(runs, data)
			fl.Close()
		})
		if err := eng.Run(); err != nil {
			return false
		}
		got := readWholeFile(t, fs, "p", fileSize)
		return bytes.Equal(got, ref)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

// Property: collective read returns exactly what a serial writer stored,
// for random decompositions.
func TestCollectiveReadProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		nprocs := rng.Intn(5) + 1
		fileSize := int64(rng.Intn(100000) + 1000)
		ref := make([]byte, fileSize)
		rng.Read(ref)
		// Random disjoint runs per rank.
		cut := []int64{0, fileSize}
		for i := 0; i < nprocs*3; i++ {
			cut = append(cut, rng.Int63n(fileSize))
		}
		sortInt64s(cut)
		ok := true
		eng := sim.NewEngine()
		mach := machine.New(testMachineCfg())
		fs := pfs.NewXFS(mach, pfs.DefaultXFS())
		mpi.NewWorld(eng, mach, nprocs, func(r *mpi.Rank) {
			fl, err := Open(r, fs, "q", ModeCreate, DefaultHints())
			if err != nil {
				panic(err)
			}
			if r.Rank() == 0 {
				fl.WriteAt(ref, 0)
			}
			r.Barrier()
			var runs []mpi.Run
			for i := r.Rank(); i < len(cut)-1; i += nprocs {
				if cut[i+1] > cut[i] {
					runs = append(runs, mpi.Run{Off: cut[i], Len: cut[i+1] - cut[i]})
				}
			}
			buf := make([]byte, mpi.TotalLen(runs))
			fl.ReadAtAll(runs, buf)
			var p int64
			for _, run := range runs {
				if !bytes.Equal(buf[p:p+run.Len], ref[run.Off:run.Off+run.Len]) {
					ok = false
				}
				p += run.Len
			}
			fl.Close()
		})
		if err := eng.Run(); err != nil {
			return false
		}
		return ok
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

func sortInt64s(a []int64) {
	for i := 1; i < len(a); i++ {
		for j := i; j > 0 && a[j] < a[j-1]; j-- {
			a[j], a[j-1] = a[j-1], a[j]
		}
	}
}
