package enzo

import (
	"bytes"
	"encoding/binary"
	"math"
	"math/bits"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/amr"
	"repro/internal/core"
	"repro/internal/mpi"
)

// The generic particle code the fixed-layout kernels replaced, kept as their
// references: every kernel must produce the same bytes, the same owners and
// the same order, and charge the same virtual time.

// refAppendRow appends particle i of a column-stored set to dst as one row,
// walking the array list.
func refAppendRow(dst []byte, ps *amr.ParticleSet, i int) []byte {
	for k, a := range amr.ParticleArrays {
		dst = append(dst, ps.Arrays[k][i*a.ElemSize:(i+1)*a.ElemSize]...)
	}
	return dst
}

func refPackRows(ps *amr.ParticleSet) []byte {
	out := make([]byte, 0, ps.N*rowSize())
	for i := 0; i < ps.N; i++ {
		out = refAppendRow(out, ps, i)
	}
	return out
}

func refFlatColumnsFromRows(chunks ...[]byte) (flat []byte, cols [][]byte) {
	rs := rowSize()
	n := 0
	for _, c := range chunks {
		n += len(c) / rs
	}
	flat = make([]byte, n*rs)
	cols = make([][]byte, len(amr.ParticleArrays))
	pos := 0
	for k, a := range amr.ParticleArrays {
		cols[k] = flat[pos : pos+n*a.ElemSize : pos+n*a.ElemSize]
		pos += n * a.ElemSize
	}
	i := 0
	for _, c := range chunks {
		for ; len(c) >= rs; c, i = c[rs:], i+1 {
			off := 0
			for k, a := range amr.ParticleArrays {
				copy(cols[k][i*a.ElemSize:], c[off:off+a.ElemSize])
				off += a.ElemSize
			}
		}
	}
	return flat, cols
}

func refParticleSetHash(ps *amr.ParticleSet) uint64 {
	var sum uint64
	for i := 0; i < ps.N; i++ {
		h := uint64(fnvOffset64)
		h *= fnvPrime64
		h ^= uint64(amr.BytesPerParticle())
		h *= fnvPrime64
		for k, a := range amr.ParticleArrays {
			seg := ps.Arrays[k][i*a.ElemSize : (i+1)*a.ElemSize]
			if a.ElemSize == 8 {
				h ^= binary.LittleEndian.Uint64(seg)
			} else {
				h ^= uint64(binary.LittleEndian.Uint32(seg))
			}
			h *= fnvPrime64
		}
		sum += h
	}
	return sum
}

func refOwnersByPosition(ps *amr.ParticleSet, g core.GridMeta, pz, py, px int) (owners []int32, counts []int) {
	owners = make([]int32, ps.N)
	counts = make([]int, pz*py*px)
	for i := range owners {
		o := core.OwnerOfPosition(ps.Position(i), g, pz, py, px)
		owners[i] = int32(o)
		counts[o]++
	}
	return owners, counts
}

// refSortRowsByIDLocal is the bottom-up merge sort on a permutation that the
// HDF4 root ran over the joined rows, with its charges.
func refSortRowsByIDLocal(r *mpi.Rank, rows []byte) []byte {
	rs := rowSize()
	n := len(rows) / rs
	idx := make([]int, n)
	for i := range idx {
		idx[i] = i
	}
	key := func(i int) int64 {
		return int64(binary.LittleEndian.Uint64(rows[idx[i]*rs:]))
	}
	tmp := make([]int, n)
	for width := 1; width < n; width *= 2 {
		for lo := 0; lo < n; lo += 2 * width {
			mid, hi := min(lo+width, n), min(lo+2*width, n)
			i, j, k := lo, mid, lo
			for i < mid && j < hi {
				if key(i) <= key(j) {
					tmp[k] = idx[i]
					i++
				} else {
					tmp[k] = idx[j]
					j++
				}
				k++
			}
			for i < mid {
				tmp[k] = idx[i]
				i, k = i+1, k+1
			}
			for j < hi {
				tmp[k] = idx[j]
				j, k = j+1, k+1
			}
			copy(idx[lo:hi], tmp[lo:hi])
		}
	}
	if n > 1 {
		r.Compute(int64(n) * int64(bits.Len(uint(n))))
	}
	out := make([]byte, len(rows))
	for k, i := range idx {
		copy(out[k*rs:], rows[i*rs:(i+1)*rs])
	}
	r.CopyCost(int64(len(rows)))
	return out
}

// refScatterColumn is the HDF4 root's element-wise append of one array.
func refScatterColumn(parts [][]byte, col []byte, elem int, owners []int32) {
	for i, o := range owners {
		parts[o] = append(parts[o], col[i*elem:(i+1)*elem]...)
	}
}

func TestParticleRowLayout(t *testing.T) {
	if rowSize() != 48 || rowBytes != 48 {
		t.Fatalf("rowSize() = %d, rowBytes = %d; the kernels are written for 48-byte rows", rowSize(), rowBytes)
	}
	if len(amr.ParticleArrays) != len(rowOffsets)-1 {
		t.Fatalf("%d particle arrays, the row layout has %d", len(amr.ParticleArrays), len(rowOffsets)-1)
	}
	want := []struct {
		name      string
		off, elem int
	}{
		{"particle_id", rowID, 8}, {"position_x", rowPosX, 8}, {"position_y", rowPosY, 8}, {"position_z", rowPosZ, 8},
		{"velocity_px", rowVelX, 4}, {"velocity_py", rowVelY, 4}, {"velocity_pz", rowVelZ, 4}, {"particle_mass", rowMass, 4},
	}
	off := 0
	for k, a := range amr.ParticleArrays {
		w := want[k]
		if a.Name != w.name || a.ElemSize != w.elem || off != w.off || rowOffsets[k] != w.off {
			t.Errorf("array %d is %s of %d bytes at offset %d (rowOffsets %d); the kernels expect %s of %d bytes at %d",
				k, a.Name, a.ElemSize, off, rowOffsets[k], w.name, w.elem, w.off)
		}
		off += a.ElemSize
	}
	if off != rowOffsets[len(rowOffsets)-1] {
		t.Errorf("rows end at %d, rowOffsets at %d", off, rowOffsets[len(rowOffsets)-1])
	}
}

// particleCase is one generated kernel input: a particle set, the grid and
// process grid it is redistributed over, and the generator that goes on to
// draw chunk and rank cuts.
type particleCase struct {
	ps         amr.ParticleSet
	g          core.GridMeta
	pz, py, px int
	rng        *rand.Rand
}

// genParticleCase draws n particles of random bytes whose IDs fall in a
// range narrow enough to repeat and whose positions mix points inside and
// outside a random grid with NaN, ±Inf and raw bit patterns; then raw
// overwrites the start of the particles' rows, so a fuzzer can set the
// first particles' bytes itself.
func genParticleCase(seed int64, n int, raw []byte) particleCase {
	rng := rand.New(rand.NewSource(seed))
	c := particleCase{ps: amr.NewParticleSet(n), rng: rng,
		pz: 1 + rng.Intn(4), py: 1 + rng.Intn(4), px: 1 + rng.Intn(4)}
	for _, col := range c.ps.Arrays {
		rng.Read(col)
	}
	for d := 0; d < 3; d++ {
		c.g.Dims[d] = 1 + rng.Intn(40)
		c.g.LeftEdge[d] = rng.NormFloat64()
		c.g.RightEdge[d] = c.g.LeftEdge[d] + math.Abs(rng.NormFloat64())
		if rng.Intn(16) == 0 {
			c.g.RightEdge[d] = c.g.LeftEdge[d] // empty span: every coordinate divides by zero
		}
	}
	idSpan := int64(1) << uint(rng.Intn(63))
	for i := 0; i < n; i++ {
		if rng.Intn(4) != 0 {
			c.ps.SetID(i, rng.Int63n(idSpan)-idSpan/2)
		}
		var pos [3]float64
		for d := range pos {
			lo, hi := c.g.LeftEdge[d], c.g.RightEdge[d]
			switch rng.Intn(8) {
			case 0:
				pos[d] = math.NaN()
			case 1:
				pos[d] = math.Inf(1 - 2*rng.Intn(2))
			case 2:
				pos[d] = lo + (hi-lo)*(3*rng.Float64()-1) // outside as often as inside
			case 3:
				pos[d] = [...]float64{lo, hi, math.Nextafter(hi, lo)}[rng.Intn(3)]
			case 4:
				pos[d] = math.Float64frombits(rng.Uint64())
			default:
				pos[d] = lo + (hi-lo)*rng.Float64()
			}
		}
		c.ps.SetPosition(i, pos)
	}
	if len(raw) > 0 {
		rows := refPackRows(&c.ps)
		copy(rows, raw)
		_, c.ps.Arrays = refFlatColumnsFromRows(rows)
	}
	return c
}

// cut splits b into consecutive pieces at random multiples of unit.
func (c particleCase) cut(b []byte, unit int) [][]byte {
	var out [][]byte
	for len(b) > 0 {
		k := unit * c.rng.Intn(len(b)/unit+1)
		out = append(out, b[:k])
		b = b[k:]
	}
	return append(out, b)
}

// FuzzParticleKernels holds every fixed-layout kernel to its reference, byte
// for byte: pack, unpack (chunked, with partial rows trailing some chunks),
// the set hash, owners by position, rows by owner, the HDF4 root's column
// scatter, the column-blocked consolidation gather, and the root's ID sort
// with its virtual-time charges.
func FuzzParticleKernels(f *testing.F) {
	nan, inf := math.Float64bits(math.NaN()), math.Float64bits(math.Inf(1))
	edge := make([]byte, 2*rowBytes)
	binary.LittleEndian.PutUint64(edge[rowPosX:], nan)
	binary.LittleEndian.PutUint64(edge[rowBytes+rowPosZ:], inf)
	for _, s := range []struct {
		seed int64
		n    uint16
		raw  []byte
	}{{1, 0, nil}, {2, 1, nil}, {3, 2, edge}, {4, 17, nil}, {5, 300, edge}, {6, 2048, nil}} {
		f.Add(s.seed, s.n, s.raw)
	}
	f.Fuzz(func(t *testing.T, seed int64, n uint16, raw []byte) {
		c := genParticleCase(seed, int(n%2049), raw)
		ps := &c.ps

		rows := packRows(ps)
		if want := refPackRows(ps); !bytes.Equal(rows, want) {
			t.Fatal("packRows differs from the reference")
		}

		chunks := c.cut(rows, rowBytes)
		for i := range chunks {
			if c.rng.Intn(3) == 0 {
				chunks[i] = append(chunks[i][:len(chunks[i]):len(chunks[i])], make([]byte, c.rng.Intn(rowBytes))...)
			}
		}
		flat, cols := flatColumnsFromRows(chunks...)
		wantFlat, wantCols := refFlatColumnsFromRows(chunks...)
		if !bytes.Equal(flat, wantFlat) || len(cols) != len(wantCols) {
			t.Fatal("flatColumnsFromRows differs from the reference")
		}
		for k := range cols {
			if !bytes.Equal(cols[k], wantCols[k]) || cap(cols[k]) != cap(wantCols[k]) {
				t.Fatalf("flatColumnsFromRows column %d differs from the reference", k)
			}
		}

		if got, want := particleSetHash(ps), refParticleSetHash(ps); got != want {
			t.Fatalf("particleSetHash = %#x, reference %#x", got, want)
		}

		s := &Sim{pz: c.pz, py: c.py, px: c.px}
		owners, counts := s.ownersByPosition(ps, c.g)
		wantOwners, wantCounts := refOwnersByPosition(ps, c.g, c.pz, c.py, c.px)
		if !slices.Equal(owners, wantOwners) || !slices.Equal(counts, wantCounts) {
			t.Fatalf("ownersByPosition differs from the reference on %+v over %dx%dx%d", c.g, c.pz, c.py, c.px)
		}

		parts := s.rowsByOwner(ps, c.g)
		for o := range parts {
			var want []byte
			for i, w := range wantOwners {
				if int(w) == o {
					want = refAppendRow(want, ps, i)
				}
			}
			if !bytes.Equal(parts[o], want) {
				t.Fatalf("rowsByOwner part %d differs from the reference", o)
			}
		}

		for k, a := range amr.ParticleArrays {
			got, want := carve(counts, a.ElemSize), carve(counts, a.ElemSize)
			scatterColumn(got, ps.Arrays[k], a.ElemSize, owners)
			refScatterColumn(want, ps.Arrays[k], a.ElemSize, wantOwners)
			for o := range got {
				if !bytes.Equal(got[o], want[o]) {
					t.Fatalf("scatterColumn array %d part %d differs from the reference", k, o)
				}
			}
		}

		// Consolidation: the ranks' pieces, column-blocked, against the old
		// row-wise gather.
		np := 1 + c.rng.Intn(8)
		cuts := []int{0, ps.N}
		for len(cuts) <= np {
			cuts = append(cuts, c.rng.Intn(ps.N+1))
		}
		slices.Sort(cuts)
		var msgs, rowMsgs [][]byte
		for r := 0; r < np; r++ {
			piece := ps.Select(seq(cuts[r], cuts[r+1]))
			msg := columnBlocked(&piece)
			if len(msg) != piece.N*rowBytes {
				t.Fatalf("consolidation message of %d particles is %d bytes", piece.N, len(msg))
			}
			msgs, rowMsgs = append(msgs, msg), append(rowMsgs, refPackRows(&piece))
		}
		got, want := gatherColumns(msgs...), unpackRows(rowMsgs...)
		if got.N != want.N {
			t.Fatalf("gatherColumns has %d particles, the row gather %d", got.N, want.N)
		}
		for k := range got.Arrays {
			if !bytes.Equal(got.Arrays[k], want.Arrays[k]) {
				t.Fatalf("gatherColumns column %d differs from the row gather", k)
			}
		}

		var sorted, wantSorted []byte
		var clock, wantClock float64
		world := func(body func(r *mpi.Rank)) {
			if _, err := mpi.Simulate(testMachineCfg(), 1, body); err != nil {
				t.Fatal(err)
			}
		}
		world(func(r *mpi.Rank) {
			sorted = (&Sim{r: r}).sortRowsByIDLocal(chunks...)
			clock = r.Now()
		})
		world(func(r *mpi.Rank) {
			var whole []byte // the chunks' whole rows, joined as the root once joined them
			for _, ch := range chunks {
				whole = append(whole, ch[:len(ch)/rowBytes*rowBytes]...)
			}
			wantSorted = refSortRowsByIDLocal(r, whole)
			wantClock = r.Now()
		})
		if !bytes.Equal(sorted, wantSorted) || clock != wantClock {
			t.Fatalf("sortRowsByIDLocal differs from the reference (clock %v, reference %v)", clock, wantClock)
		}
	})
}

// seq returns lo, lo+1, ..., hi-1.
func seq(lo, hi int) []int {
	out := make([]int, 0, hi-lo)
	for i := lo; i < hi; i++ {
		out = append(out, i)
	}
	return out
}

// TestParticleKernelAllocs pins what each kernel allocates per call: its
// result and nothing else.
func TestParticleKernelAllocs(t *testing.T) {
	c := genParticleCase(29, 4096, nil)
	ps := &c.ps
	rows := packRows(ps)
	s := &Sim{pz: 2, py: 2, px: 2}
	for _, k := range []struct {
		name string
		max  float64
		f    func()
	}{
		{"packRows", 1, func() { packRows(ps) }},
		{"flatColumnsFromRows", 2, func() { flatColumnsFromRows(rows) }},
		{"ownersByPosition", 2, func() { s.ownersByPosition(ps, c.g) }},
		{"particleSetHash", 0, func() { particleSetHash(ps) }},
		{"consolidate send buffer", 1, func() { columnBlocked(ps) }},
	} {
		if got := testing.AllocsPerRun(20, k.f); got > k.max {
			t.Errorf("%s: %v allocations per call, want at most %v", k.name, got, k.max)
		}
	}
}
