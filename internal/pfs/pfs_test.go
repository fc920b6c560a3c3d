package pfs

import (
	"bytes"
	"fmt"
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/machine"
	"repro/internal/sim"
)

func TestByteStoreRoundTrip(t *testing.T) {
	st := NewByteStore()
	data := []byte("the quick brown fox")
	st.WriteAt(data, 100)
	if st.Size() != 100+int64(len(data)) {
		t.Fatalf("size = %d", st.Size())
	}
	buf := make([]byte, len(data))
	st.ReadAt(buf, 100)
	if !bytes.Equal(buf, data) {
		t.Fatalf("read back %q", buf)
	}
}

func TestByteStoreHolesReadZero(t *testing.T) {
	st := NewByteStore()
	st.WriteAt([]byte{0xFF}, 200000) // a hole of 200,000 bytes before it
	buf := make([]byte, 10)
	st.ReadAt(buf, 0)
	for _, b := range buf {
		if b != 0 {
			t.Fatal("hole did not read as zero")
		}
	}
	one := make([]byte, 1)
	st.ReadAt(one, 200000)
	if one[0] != 0xFF {
		t.Fatal("written byte lost")
	}
}

// A read destination is whatever the caller had lying around (a reused
// staging buffer): one read that starts inside a written extent, crosses a
// hole and runs past the logical size must leave exactly the written bytes
// and zeros in it, and touch nothing outside it.
func TestByteStoreReadOverwritesDirtyBuffer(t *testing.T) {
	const gap = 64 * 1024
	st := NewByteStore()
	head := bytes.Repeat([]byte{0xA1}, 100)
	tail := []byte{0xB2, 0xB3, 0xB4}
	st.WriteAt(head, gap-100)  // ends at gap
	st.WriteAt(tail, 2*gap+10) // [gap, 2*gap+10) stays a hole; EOF at 2*gap + 13
	off := int64(gap - 50)
	n := int(st.Size()-off) + 500 // 500 bytes past EOF
	want := make([]byte, n)
	copy(want, head[50:])
	copy(want[2*gap+10-off:], tail)

	dirty := bytes.Repeat([]byte{0xEE}, n+2)
	st.ReadAt(dirty[1:n+1], off)
	if !bytes.Equal(dirty[1:n+1], want) {
		t.Fatal("read into a dirty buffer did not return the written bytes and zeros")
	}
	if dirty[0] != 0xEE || dirty[n+1] != 0xEE {
		t.Fatal("read wrote outside its destination")
	}
	// Wholly past EOF.
	st.ReadAt(dirty, 10*gap+7)
	if !bytes.Equal(dirty, make([]byte, len(dirty))) {
		t.Fatal("read past EOF left stale bytes in the destination")
	}
}

func TestByteStoreCrossPageWrite(t *testing.T) {
	st := NewByteStore()
	data := make([]byte, 3*64*1024+17)
	rng := rand.New(rand.NewSource(7))
	rng.Read(data)
	off := int64(64*1024 - 13)
	st.WriteAt(data, off)
	buf := make([]byte, len(data))
	st.ReadAt(buf, off)
	if !bytes.Equal(buf, data) {
		t.Fatal("large unaligned round trip failed")
	}
}

func TestByteStoreTruncate(t *testing.T) {
	st := NewByteStore()
	st.WriteAt([]byte("abc"), 0)
	st.Truncate()
	if st.Size() != 0 {
		t.Fatal("truncate did not reset size")
	}
	buf := make([]byte, 3)
	st.ReadAt(buf, 0)
	if !bytes.Equal(buf, []byte{0, 0, 0}) {
		t.Fatal("truncate did not clear data")
	}
}

// Property: random sequences of writes against ByteStore match a reference
// flat-slice model.
func TestByteStoreMatchesReferenceProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		st := NewByteStore()
		ref := make([]byte, 1<<18)
		for i := 0; i < 30; i++ {
			off := rng.Int63n(1 << 17)
			n := rng.Intn(1 << 12)
			data := make([]byte, n)
			rng.Read(data)
			st.WriteAt(data, off)
			copy(ref[off:], data)
		}
		buf := make([]byte, len(ref))
		st.ReadAt(buf, 0)
		return bytes.Equal(buf, ref)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func TestStripeSplitCoversExtentExactly(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		unit := int64(rng.Intn(1000) + 1)
		nServers := rng.Intn(7) + 1
		off := rng.Int63n(10000)
		n := rng.Int63n(20000) + 1
		spans := stripeSplit(off, n, unit, nServers)
		var total int64
		for _, sp := range spans {
			if sp.server < 0 || sp.server >= nServers || sp.n <= 0 || sp.localOff < 0 {
				return false
			}
			total += sp.n
		}
		return total == n
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestStripeSplitMergesContiguousLocalRuns(t *testing.T) {
	// A large extent over 4 servers: each server must get exactly one
	// merged local span (its stripes are locally contiguous).
	spans := stripeSplit(0, 16*1024, 1024, 4)
	if len(spans) != 4 {
		t.Fatalf("got %d spans, want 4 merged spans: %+v", len(spans), spans)
	}
	for _, sp := range spans {
		if sp.n != 4*1024 || sp.localOff != 0 {
			t.Fatalf("span %+v, want localOff=0 n=4096", sp)
		}
		if len(sp.stripes) != 4 {
			t.Fatalf("span stripes %v, want 4", sp.stripes)
		}
	}
}

func TestStripeSplitSingleServer(t *testing.T) {
	spans := stripeSplit(100, 5000, 64, 1)
	if len(spans) != 1 || spans[0].localOff != 100 || spans[0].n != 5000 {
		t.Fatalf("single-server split = %+v", spans)
	}
}

func TestDiskSequentialSkipsSeek(t *testing.T) {
	p := DiskParams{Seek: 0.010, PerReq: 0.001, BW: 1e6}
	d := NewDisk("d", p)
	approx := func(got, want float64) bool {
		diff := got - want
		return diff < 1e-12 && diff > -1e-12
	}
	end1 := d.Access(0, 0, 1000) // seek + perReq + 1ms
	if !approx(end1, 0.012) {
		t.Fatalf("first access end = %g", end1)
	}
	end2 := d.Access(end1, 1000, 1000) // sequential: no seek
	if !approx(end2-end1, 0.002) {
		t.Fatalf("sequential access took %g, want 0.002", end2-end1)
	}
	end3 := d.Access(end2, 100<<20, 1000) // far jump: full seek
	if !approx(end3-end2, 0.012) {
		t.Fatalf("far access took %g, want 0.012", end3-end2)
	}
	end4 := d.Access(end3, 100<<20+500000, 1000) // short hop: fractional seek
	if !approx(end4-end3, 0.002+0.010*nearSeekFraction) {
		t.Fatalf("near access took %g, want %g", end4-end3, 0.002+0.010*nearSeekFraction)
	}
}

// fsUnderTest builds each file system on a tiny machine for table-driven
// tests.
func fsUnderTest(mach *machine.Machine) map[string]FileSystem {
	return map[string]FileSystem{
		"xfs":   NewXFS(mach, DefaultXFS()),
		"gpfs":  NewGPFS(mach, DefaultGPFS()),
		"pvfs":  NewPVFS(mach, DefaultPVFS()),
		"local": NewLocalFS(mach, DefaultLocal()),
	}
}

func testMachine() *machine.Machine {
	return machine.New(machine.Config{
		Name: "t", Nodes: 8, ProcsPerNode: 1,
		WireLatency: 50e-6, LinkBW: 100e6, SendOverhead: 5e-6, RecvOverhead: 5e-6,
		MemLatency: 1e-6, MemCopyBW: 1e9, ComputeRate: 1e9,
	})
}

func TestAllFileSystemsRoundTripData(t *testing.T) {
	for _, name := range []string{"xfs", "gpfs", "pvfs", "local"} {
		name := name
		t.Run(name, func(t *testing.T) {
			mach := testMachine()
			fs := fsUnderTest(mach)[name]
			eng := sim.NewEngine()
			data := make([]byte, 300000)
			rand.New(rand.NewSource(3)).Read(data)
			got := make([]byte, len(data))
			eng.Spawn("client", func(p *sim.Proc) {
				c := Client{Proc: p, Node: 0}
				f, err := fs.Create(c, "test.dat")
				if err != nil {
					panic(err)
				}
				f.WriteAt(c, data, 12345)
				f.ReadAt(c, got, 12345)
				// A lend that moves no bytes never reaches the store, so it
				// must not hand back the pieces of the Lend's last read.
				l := Lend{Pieces: [][]byte{data}}
				if f.LendAt(c, &l, 12345); len(l.Pieces) != 0 {
					panic("a zero-length lend kept the last read's pieces")
				}
				if f.Size(c) != 12345+int64(len(data)) {
					panic(fmt.Sprintf("size = %d", f.Size(c)))
				}
				f.Close(c)
			})
			if err := eng.Run(); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got, data) {
				t.Fatal("data did not round trip")
			}
			st := fs.Stats()
			if st.BytesWritten != int64(len(data)) || st.BytesRead != int64(len(data)) {
				t.Fatalf("stats = %+v", st)
			}
			if eng.MaxTime() <= 0 {
				t.Fatal("I/O cost no virtual time")
			}
		})
	}
}

func TestOpenMissingFileFails(t *testing.T) {
	mach := testMachine()
	for name, fs := range fsUnderTest(mach) {
		fs := fs
		eng := sim.NewEngine()
		var err error
		eng.Spawn("c", func(p *sim.Proc) {
			_, err = fs.Open(Client{Proc: p, Node: 0}, "nope")
		})
		if e := eng.Run(); e != nil {
			t.Fatal(e)
		}
		if err == nil {
			t.Fatalf("%s: Open of missing file succeeded", name)
		}
	}
}

func TestOpenExistingFileSeesData(t *testing.T) {
	for _, name := range []string{"xfs", "gpfs", "pvfs"} {
		mach := testMachine()
		fs := fsUnderTest(mach)[name]
		eng := sim.NewEngine()
		eng.Spawn("writer-then-reader", func(p *sim.Proc) {
			c := Client{Proc: p, Node: 0}
			f, _ := fs.Create(c, "x")
			f.WriteAt(c, []byte("hello"), 0)
			f.Close(c)
			g, err := fs.Open(c, "x")
			if err != nil {
				panic(err)
			}
			buf := make([]byte, 5)
			g.ReadAt(c, buf, 0)
			if string(buf) != "hello" {
				panic("reopen lost data: " + string(buf))
			}
		})
		if err := eng.Run(); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
	}
}

func TestLocalFSPartitionsAreNodePrivate(t *testing.T) {
	mach := testMachine()
	fs := NewLocalFS(mach, DefaultLocal())
	eng := sim.NewEngine()
	done := make(chan struct{}, 1)
	_ = done
	var read0, read1 []byte
	eng.Spawn("n0", func(p *sim.Proc) {
		c := Client{Proc: p, Node: 0}
		f, _ := fs.Create(c, "part")
		f.WriteAt(c, []byte("node0"), 0)
		buf := make([]byte, 5)
		f.ReadAt(c, buf, 0)
		read0 = buf
	})
	eng.Spawn("n1", func(p *sim.Proc) {
		p.Advance(1) // run after node 0 wrote
		c := Client{Proc: p, Node: 1}
		f, _ := fs.Create(c, "part")
		buf := make([]byte, 5)
		f.ReadAt(c, buf, 0)
		read1 = buf
	})
	if err := eng.Run(); err != nil {
		t.Fatal(err)
	}
	if string(read0) != "node0" {
		t.Fatalf("node 0 read %q", read0)
	}
	if string(read1) == "node0" {
		t.Fatal("node 1 must not see node 0's partition")
	}
}

func TestXFSParallelWritersBeatOneBigWriter(t *testing.T) {
	// The Figure 6 mechanism: N clients writing 1/N of the data each must
	// finish faster than one client writing all of it, because XFS's LUNs
	// are only saturated by parallel streams.
	total := int64(64 << 20)
	single := xfsWriteMakespan(t, 1, total)
	parallel := xfsWriteMakespan(t, 8, total)
	if parallel >= single {
		t.Fatalf("8 writers %.3fs, 1 writer %.3fs: parallelism did not help", parallel, single)
	}
	if parallel > 0.7*single {
		t.Fatalf("8 writers %.3fs vs 1 writer %.3fs: speedup too small", parallel, single)
	}
}

func xfsWriteMakespan(t *testing.T, nclients int, totalBytes int64) float64 {
	t.Helper()
	mach := machine.New(machine.ByName("origin2000"))
	fs := NewXFS(mach, DefaultXFS())
	eng := sim.NewEngine()
	per := totalBytes / int64(nclients)
	var handles []File
	eng.Spawn("creator", func(p *sim.Proc) {
		c := Client{Proc: p, Node: 0}
		f, _ := fs.Create(c, "big")
		handles = append(handles, f)
	})
	if err := eng.Run(); err != nil {
		t.Fatal(err)
	}
	eng2 := sim.NewEngine()
	fs2 := NewXFS(machine.New(machine.ByName("origin2000")), DefaultXFS())
	var file File
	// create then parallel write within one engine
	for i := 0; i < nclients; i++ {
		i := i
		eng2.Spawn(fmt.Sprintf("w%d", i), func(p *sim.Proc) {
			c := Client{Proc: p, Node: i}
			if i == 0 {
				f, _ := fs2.Create(c, "big")
				file = f
			}
			p.AdvanceTo(0.01) // let creation happen first
			chunk := make([]byte, 4<<20)
			written := int64(0)
			for written < per {
				n := int64(len(chunk))
				if written+n > per {
					n = per - written
				}
				file.WriteAt(c, chunk[:n], int64(i)*per+written)
				written += n
			}
		})
	}
	if err := eng2.Run(); err != nil {
		t.Fatal(err)
	}
	return eng2.MaxTime()
}

func TestGPFSConflictingWritersPayRevocations(t *testing.T) {
	// Two clients alternating writes into the same stripe must be much
	// slower than one client doing all the writes — token ping-pong.
	cfg := DefaultGPFS()
	run := func(nclients int) float64 {
		mach := machine.New(machine.ByName("sp2"))
		fs := NewGPFS(mach, cfg)
		eng := sim.NewEngine()
		var f File
		const writes = 50
		const sz = 4096
		for i := 0; i < nclients; i++ {
			i := i
			eng.Spawn(fmt.Sprintf("w%d", i), func(p *sim.Proc) {
				c := Client{Proc: p, Node: i}
				if i == 0 {
					g, _ := fs.Create(c, "shared")
					f = g
				}
				p.AdvanceTo(0.1)
				for k := 0; k < writes/nclients; k++ {
					// All writes land inside stripe 0.
					f.WriteAt(c, make([]byte, sz), int64((k*nclients+i)*sz))
				}
			})
		}
		if err := eng.Run(); err != nil {
			t.Fatal(err)
		}
		return eng.MaxTime()
	}
	solo := run(1)
	duo := run(2)
	if duo <= solo {
		t.Fatalf("conflicting writers %.4fs vs solo %.4fs: no token penalty", duo, solo)
	}
}

func TestPVFSSmallRequestsDominatedByPerRequestCost(t *testing.T) {
	// 1000 x 1 KB writes must be far slower than 1 x 1 MB write even
	// though they move about the same data: per-request daemon overhead.
	mach := machine.New(machine.ByName("chiba"))
	fs := NewPVFS(mach, DefaultPVFS())
	eng := sim.NewEngine()
	var tSmall, tBig float64
	eng.Spawn("c", func(p *sim.Proc) {
		c := Client{Proc: p, Node: 0}
		f, _ := fs.Create(c, "f")
		start := p.Now()
		buf := make([]byte, 1024)
		for i := 0; i < 1000; i++ {
			f.WriteAt(c, buf, int64(i)*2048) // strided small writes
		}
		tSmall = p.Now() - start
		start = p.Now()
		f.WriteAt(c, make([]byte, 1<<20), 10<<20)
		tBig = p.Now() - start
	})
	if err := eng.Run(); err != nil {
		t.Fatal(err)
	}
	if tSmall < 5*tBig {
		t.Fatalf("1000 small writes %.4fs vs one big write %.4fs: per-request cost too weak", tSmall, tBig)
	}
}

func TestStatsAccumulate(t *testing.T) {
	mach := testMachine()
	fs := NewXFS(mach, DefaultXFS())
	eng := sim.NewEngine()
	eng.Spawn("c", func(p *sim.Proc) {
		c := Client{Proc: p, Node: 0}
		f, _ := fs.Create(c, "a")
		f.WriteAt(c, make([]byte, 10), 0)
		f.WriteAt(c, make([]byte, 20), 10)
		buf := make([]byte, 5)
		f.ReadAt(c, buf, 0)
		fs.Open(c, "a")
	})
	if err := eng.Run(); err != nil {
		t.Fatal(err)
	}
	st := fs.Stats()
	if st.BytesWritten != 30 || st.WriteReqs != 2 || st.BytesRead != 5 ||
		st.ReadReqs != 1 || st.Creates != 1 || st.Opens != 1 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestSnapshotRestoreAllFileSystems(t *testing.T) {
	// Out-of-band staging must round-trip contents between two fresh
	// instances of every file system type.
	for _, kind := range []string{"xfs", "gpfs", "pvfs", "local"} {
		kind := kind
		t.Run(kind, func(t *testing.T) {
			build := func() FileSystem {
				m := testMachine()
				switch kind {
				case "xfs":
					return NewXFS(m, DefaultXFS())
				case "gpfs":
					return NewGPFS(m, DefaultGPFS())
				case "pvfs":
					return NewPVFS(m, DefaultPVFS())
				default:
					return NewLocalFS(m, DefaultLocal())
				}
			}
			src := build()
			payload := []byte("staged checkpoint bytes")
			eng := sim.NewEngine()
			eng.Spawn("writer", func(p *sim.Proc) {
				c := Client{Proc: p, Node: 1}
				f, err := src.Create(c, "ckpt")
				if err != nil {
					panic(err)
				}
				f.WriteAt(c, payload, 64)
				f.Close(c)
				if src.Name() == "" || !src.Exists("ckpt") {
					panic("accessors broken")
				}
			})
			if err := eng.Run(); err != nil {
				t.Fatal(err)
			}
			snap := src.Snapshot()
			if len(snap) == 0 {
				t.Fatal("snapshot empty")
			}
			dst := build()
			dst.Restore(snap)
			eng2 := sim.NewEngine()
			eng2.Spawn("reader", func(p *sim.Proc) {
				c := Client{Proc: p, Node: 1} // same node: required for LocalFS
				f, err := dst.Open(c, "ckpt")
				if err != nil {
					panic(err)
				}
				buf := make([]byte, len(payload))
				f.ReadAt(c, buf, 64)
				if !bytes.Equal(buf, payload) {
					panic("restored contents differ")
				}
				if f.Size(c) != 64+int64(len(payload)) {
					panic("restored size wrong")
				}
				f.Close(c)
			})
			if err := eng2.Run(); err != nil {
				t.Fatal(err)
			}
		})
	}
}

func TestLocalFSRestoreIgnoresMalformedKeys(t *testing.T) {
	fs := NewLocalFS(testMachine(), DefaultLocal())
	fs.Restore(map[string][]byte{"not-a-node-key": []byte("x")})
	if fs.Exists("not-a-node-key") || fs.Exists("x") {
		t.Fatal("malformed staging key should be skipped")
	}
}

func TestDiskSeekStats(t *testing.T) {
	d := NewDisk("d", DiskParams{Seek: 1e-3, PerReq: 1e-4, BW: 1e8})
	d.Access(0, 0, 100)         // far (first access)
	d.Access(1, 100, 100)       // sequential
	d.Access(2, 100+1<<20, 100) // near (1MB hop)
	d.Access(3, 500<<20, 100)   // far
	seq, near, far := d.SeekStats()
	if seq != 1 || near != 1 || far != 2 {
		t.Fatalf("seek stats seq=%d near=%d far=%d, want 1,1,2", seq, near, far)
	}
}

// BenchmarkByteStoreWrite times the store that holds every simulated file's
// bytes (the store is the file: an index of the buffers it was given). A
// write is an index operation, so the rows differ in where it lands: append is
// 1 MiB requests in offset order into an empty file (how files are written:
// 0 B/op beyond the index's own growth); overwrite rewrites the same 64 MiB
// in place (every request shadows one extent exactly, the index stays 64
// long); scattered builds one file from 64 Ki requests of 64 bytes at
// shuffled offsets, the quadratic case of a sorted slice — no workload in the
// repository comes near it (DESIGN.md §13), and the row is here so that one
// that does is seen.
func BenchmarkByteStoreWrite(b *testing.B) {
	const req, fileSize = 1 << 20, 64 << 20
	data := make([]byte, req)
	rand.New(rand.NewSource(1)).Read(data)
	for _, tc := range []struct {
		name      string
		overwrite bool
	}{{"append", false}, {"overwrite", true}} {
		b.Run(tc.name, func(b *testing.B) { // ns/op is per request: no byte moves
			b.ReportAllocs()
			st := NewByteStore()
			if tc.overwrite {
				for off := int64(0); off < fileSize; off += req {
					st.WriteAt(data, off)
				}
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				off := int64(i) * req % fileSize
				if off == 0 && !tc.overwrite {
					st.Truncate() // every write of a pass lands past the end
				}
				st.WriteAt(data, off)
			}
			if tc.overwrite && len(st.ext) != fileSize/req {
				b.Fatalf("index grew to %d extents under in-place rewrites", len(st.ext))
			}
		})
	}
	b.Run("scattered", func(b *testing.B) {
		const n, small = 64 << 10, 64
		offs := rand.New(rand.NewSource(2)).Perm(n)
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			st := NewByteStore()
			for _, k := range offs {
				st.WriteAt(data[:small], int64(k)*small)
			}
		}
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/n, "ns/request")
	})
}

// BenchmarkByteStoreRead times 1 MiB reads out of the same 64 MiB of memory
// held as one extent and as 1 KiB extents (1,024 to a read): ReadAt's copy,
// and LendAt's pieces into a reused list — none copied, and no allocation.
func BenchmarkByteStoreRead(b *testing.B) {
	const req, fileSize = 1 << 20, 64 << 20
	buf := make([]byte, req)
	var pieces [][]byte
	src := make([]byte, fileSize)
	rand.New(rand.NewSource(1)).Read(src) // touched: not 64 MiB of the shared zero page
	for _, tc := range []struct {
		name   string
		extent int
		lend   bool
	}{{"one-extent", fileSize, false}, {"across-1024-extents", req / 1024, false},
		{"lend", fileSize, true}, {"lend-across-1024-extents", req / 1024, true}} {
		b.Run(tc.name, func(b *testing.B) {
			b.SetBytes(req)
			b.ReportAllocs()
			st := NewByteStore()
			for off := 0; off < fileSize; off += tc.extent {
				st.WriteAt(src[off:off+tc.extent], int64(off))
			}
			pieces = st.LendAt(pieces[:0], 0, req) // grow the list once
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if tc.lend {
					pieces = st.LendAt(pieces[:0], int64(i)*req%fileSize, req)
				} else {
					st.ReadAt(buf, int64(i)*req%fileSize)
				}
			}
		})
	}
}

// TestLendAllocatesNothing pins what a lend read costs the heap: nothing when the
// range lies inside one extent, and nothing across many once the piece list
// the caller reuses has grown.
func TestLendAllocatesNothing(t *testing.T) {
	st := NewByteStore()
	st.WriteAt(make([]byte, 1<<16), 0)
	for off := int64(1 << 16); off < 1<<17; off += 1 << 10 {
		st.WriteAt(make([]byte, 1<<10), off)
	}
	pieces := st.LendAt(nil, 1<<16, 1<<16)
	for _, tc := range []struct {
		name    string
		off, n  int64
		nPieces int
	}{{"one-extent", 100, 1 << 15, 1}, {"across-64-extents", 1 << 16, 1 << 16, 64}} {
		allocs := testing.AllocsPerRun(100, func() { pieces = st.LendAt(pieces[:0], tc.off, tc.n) })
		if allocs != 0 || len(pieces) != tc.nPieces {
			t.Errorf("%s: LendAt made %v allocations and %d pieces, want 0 and %d", tc.name, allocs, len(pieces), tc.nPieces)
		}
	}
}

// TestLentRange holds the cut a lend reader makes of its pieces: a range
// inside one piece is that piece's own memory, capped; one that spans pieces
// is a join; an empty one at the end is empty.
func TestLentRange(t *testing.T) {
	pieces := [][]byte{[]byte("abcd"), []byte("ef"), []byte("ghij")}
	for _, tc := range []struct {
		at, n int64
		want  string
		piece int // the piece the result lies in, -1 for a join
		from  int // where in it
	}{{0, 4, "abcd", 0, 0}, {1, 2, "bc", 0, 1}, {4, 2, "ef", 1, 0}, {7, 3, "hij", 2, 1},
		{3, 2, "de", -1, 0}, {2, 7, "cdefghi", -1, 0}, {0, 10, "abcdefghij", -1, 0}, {10, 0, "", -1, 0}} {
		got := LentRange(pieces, tc.at, tc.n)
		if string(got) != tc.want || cap(got) != len(got) {
			t.Errorf("LentRange(%d, %d) = %q with capacity %d, want %q capped", tc.at, tc.n, got, cap(got), tc.want)
		}
		if tc.piece >= 0 && &got[0] != &pieces[tc.piece][tc.from] {
			t.Errorf("LentRange(%d, %d) copied bytes that lie in piece %d", tc.at, tc.n, tc.piece)
		}
	}
}
