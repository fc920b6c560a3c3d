package enzo

import (
	"bytes"
	"math/rand"
	"strings"
	"testing"

	"repro/internal/amr"
	"repro/internal/core"
	"repro/internal/mpi"
)

// TestDumpGenerationsIdentical: the rooted collectives hand the root each
// rank's top blocks by reference, so a root that wrote into a gathered block
// (or a staging buffer that leaked from one field into the next) would show
// in the second dump of the same state. Generation 0 and generation 1 must
// be byte-identical, file by file, and the restart from the last one must
// verify.
func TestDumpGenerationsIdentical(t *testing.T) {
	for _, tc := range []struct {
		fs      string
		backend Backend
		codec   string
	}{{"gpfs", BackendHDF4, ""}, {"pvfs", BackendMPIIO, ""}, {"pvfs", BackendMPIIO, "lzss"}, {"pvfs", BackendHDF5, "lzss"}} {
		cfg := tinyCfg()
		cfg.Dumps, cfg.Codec = 2, tc.codec
		res, files := snapshotRun(t, tc.fs, 4, cfg, tc.backend)
		if !res.Verified {
			t.Fatalf("%s: restart not verified", tc.backend)
		}
		pairs := 0
		for name, gen0 := range files {
			if !strings.HasPrefix(name, "dump00") {
				continue
			}
			gen1, ok := files["dump01"+strings.TrimPrefix(name, "dump00")]
			if !ok {
				t.Fatalf("%s: %s has no generation-1 twin", tc.backend, name)
			}
			if !bytes.Equal(gen0, gen1) {
				t.Errorf("%s: %s differs between generations 0 and 1", tc.backend, name)
			}
			pairs++
		}
		if pairs == 0 {
			t.Fatalf("%s: no dump files found among %d files", tc.backend, len(files))
		}
	}
}

// hashBytes guards restart verification and the scrub sidecar, and it runs
// four interleaved lanes: the properties below are the ones a lane mix-up
// would break (a lane dropped, two lanes folded symmetrically, the tail
// forgotten), checked for every length around the 8- and 32-byte block
// boundaries.
func TestHashBytesProperties(t *testing.T) {
	rng := rand.New(rand.NewSource(16))
	for n := 0; n <= 257; n++ {
		buf := make([]byte, n)
		rng.Read(buf)
		seed := rng.Uint64()
		h := hashBytes(seed, buf)
		if hashBytes(seed, buf) != h {
			t.Fatalf("len %d: two calls disagree", n)
		}
		for bit := 0; bit < 8*n; bit++ {
			buf[bit/8] ^= 1 << (bit % 8)
			if hashBytes(seed, buf) == h {
				t.Fatalf("len %d: flipping bit %d leaves the hash unchanged", n, bit)
			}
			buf[bit/8] ^= 1 << (bit % 8)
		}
		if hashBytes(seed, append(buf[:n:n], 0)) == h {
			t.Fatalf("len %d: an appended zero byte leaves the hash unchanged", n)
		}
		// Swap two distinct 8-byte words: 32 bytes apart they share a lane,
		// 8 bytes apart they sit in neighbouring lanes.
		for _, dist := range []int{8, 32} {
			for i := 0; i+dist+8 <= n; i += 8 {
				a, b := buf[i:i+8], buf[i+dist:i+dist+8]
				if bytes.Equal(a, b) {
					continue
				}
				swapped := bytes.Clone(buf)
				copy(swapped[i:], b)
				copy(swapped[i+dist:], a)
				if hashBytes(seed, swapped) == h {
					t.Fatalf("len %d: swapping words at %d and %d leaves the hash unchanged", n, i, i+dist)
				}
			}
		}
		if n >= 2 {
			a, b := buf[:n/2], buf[n/2:]
			if !bytes.Equal(a, b) && hashBytes(hashBytes(0, a), b) == hashBytes(hashBytes(0, b), a) {
				t.Fatalf("len %d: chaining is order-blind", n)
			}
		}
	}
}

var hashSink uint64

// BenchmarkVerifyHash: the verification hash over one 8 MiB field block.
func BenchmarkVerifyHash(b *testing.B) {
	buf := make([]byte, 8<<20)
	rand.New(rand.NewSource(1)).Read(buf)
	b.SetBytes(int64(len(buf)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		hashSink = hashBytes(hashSink, buf)
	}
}

// BenchmarkParticleRoundTrip: 64 Ki particles from columns to rows (the
// message form), cut into the eight chunks an exchange or a gather would
// deliver, and back into a column-stored set — one pack buffer and one set,
// no concatenation in between.
func BenchmarkParticleRoundTrip(b *testing.B) {
	const n, np = 64 << 10, 8
	ps := amr.NewParticleSet(n)
	rng := rand.New(rand.NewSource(1))
	for _, col := range ps.Arrays {
		rng.Read(col)
	}
	b.SetBytes(int64(n * rowSize()))
	b.ReportAllocs()
	chunks := make([][]byte, np)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rows := packRows(&ps)
		per := n / np * rowSize()
		for c := range chunks {
			chunks[c] = rows[c*per : (c+1)*per]
		}
		if back := unpackRows(chunks...); back.N != n {
			b.Fatal("lost particles")
		}
	}
}

// benchParticles is n particles of random bytes with positions uniform in
// the unit cube, the top grid of the benchmarks below.
func benchParticles(n int) amr.ParticleSet {
	ps := amr.NewParticleSet(n)
	rng := rand.New(rand.NewSource(1))
	for _, col := range ps.Arrays {
		rng.Read(col)
	}
	for i := 0; i < n; i++ {
		ps.SetPosition(i, [3]float64{rng.Float64(), rng.Float64(), rng.Float64()})
	}
	return ps
}

var ownerSink []int32

// BenchmarkOwnersByPosition: the owner of each of 64 Ki particles in a 128³
// grid over a 2×2×2 process grid — the redistribution's first pass.
func BenchmarkOwnersByPosition(b *testing.B) {
	const n = 64 << 10
	ps := benchParticles(n)
	g := core.GridMeta{Dims: [3]int{128, 128, 128}, RightEdge: [3]float64{1, 1, 1}}
	s := &Sim{pz: 2, py: 2, px: 2}
	b.SetBytes(n * 24) // the position columns
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ownerSink, _ = s.ownersByPosition(&ps, g)
	}
}

// BenchmarkParticleSetHash: the restart verification hash of 64 Ki
// particles.
func BenchmarkParticleSetHash(b *testing.B) {
	const n = 64 << 10
	ps := benchParticles(n)
	b.SetBytes(int64(n * rowSize()))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		hashSink += particleSetHash(&ps)
	}
}

// BenchmarkColumnGather: consolidating 64 Ki particles held by eight ranks
// onto one — each rank's message built from its columns, then the owner's
// assembly of the eight messages into one column-stored set.
func BenchmarkColumnGather(b *testing.B) {
	const n, np = 64 << 10, 8
	pieces := make([]amr.ParticleSet, np)
	all := benchParticles(n)
	for r := range pieces {
		idx := make([]int, n/np)
		for k := range idx {
			idx[k] = r*n/np + k
		}
		pieces[r] = all.Select(idx)
	}
	b.SetBytes(int64(n * rowSize()))
	b.ReportAllocs()
	msgs := make([]mpi.View, np)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for r := range pieces {
			msgs[r] = mpi.Packed(columnBlocked(&pieces[r]))
		}
		if got := gatherColumns(msgs); got.N != n {
			b.Fatal("lost particles")
		}
	}
}
