package enzo

import (
	"encoding/binary"
	"math"
	"math/bits"

	"repro/internal/amr"
	"repro/internal/core"
	"repro/internal/psort"
)

// Particle rows: the redistribution and sorting unit is one particle's
// bytes across all arrays, concatenated in array order:
// [id 8][pos_x 8][pos_y 8][pos_z 8][vel_x 4][vel_y 4][vel_z 4][mass 4].

// rowSize is the byte size of one particle row.
func rowSize() int { return int(amr.BytesPerParticle()) }

// appendRow appends particle i of a column-stored set to dst as one row.
func appendRow(dst []byte, ps *amr.ParticleSet, i int) []byte {
	for k, a := range amr.ParticleArrays {
		dst = append(dst, ps.Arrays[k][i*a.ElemSize:(i+1)*a.ElemSize]...)
	}
	return dst
}

// packRows converts a column-stored particle set into row-major bytes.
func packRows(ps *amr.ParticleSet) []byte {
	out := make([]byte, 0, ps.N*rowSize())
	for i := 0; i < ps.N; i++ {
		out = appendRow(out, ps, i)
	}
	return out
}

// unpackRows converts row-major bytes — one buffer or the chunks of a
// gather or an exchange, taken in order — back into a column-stored set.
func unpackRows(chunks ...[]byte) amr.ParticleSet {
	flat, cols := flatColumnsFromRows(chunks...)
	return amr.ParticleSet{N: len(flat) / rowSize(), Arrays: cols}
}

// rowPosition reads the (z,y,x) position out of a row.
func rowPosition(row []byte) [3]float64 {
	px := math.Float64frombits(binary.LittleEndian.Uint64(row[8:]))
	py := math.Float64frombits(binary.LittleEndian.Uint64(row[16:]))
	pz := math.Float64frombits(binary.LittleEndian.Uint64(row[24:]))
	return [3]float64{pz, py, px}
}

// flatColumnsFromRows splits row-major particle bytes (chunks taken in
// order, each a whole number of rows) into one column per particle array
// (the file storage layout), all in a single backing buffer: column k
// occupies flat[pos_k : pos_k+n*elem_k] in array order, so the same bytes
// serve directly as a WriteList payload (entries in array order) without a
// second gather copy.
func flatColumnsFromRows(chunks ...[]byte) (flat []byte, cols [][]byte) {
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

// ownersByPosition maps every particle of ps to the rank whose sub-domain
// of grid g contains its position, and counts each rank's share.
func (s *Sim) ownersByPosition(ps *amr.ParticleSet, g core.GridMeta) (owners []int32, counts []int) {
	owners = make([]int32, ps.N)
	counts = make([]int, s.r.Size())
	for i := range owners {
		o := core.OwnerOfPosition(ps.Position(i), g, s.pz, s.py, s.px)
		owners[i] = int32(o)
		counts[o]++
	}
	return owners, counts
}

// carve returns one empty slice per owner with room for exactly counts[o]
// records of recSize bytes, all in one backing buffer — filling them by
// append costs no per-owner growth.
func carve(counts []int, recSize int) [][]byte {
	total := 0
	for _, c := range counts {
		total += c
	}
	backing := make([]byte, total*recSize)
	parts := make([][]byte, len(counts))
	pos := 0
	for o, c := range counts {
		parts[o] = backing[pos : pos : pos+c*recSize]
		pos += c * recSize
	}
	return parts
}

// rowsByOwner packs ps into one row-major part per rank: the rows of the
// particles whose positions fall in that rank's sub-domain of grid g.
func (s *Sim) rowsByOwner(ps *amr.ParticleSet, g core.GridMeta) [][]byte {
	owners, counts := s.ownersByPosition(ps, g)
	parts := carve(counts, rowSize())
	for i, o := range owners {
		parts[o] = appendRow(parts[o], ps, i)
	}
	return parts
}

// redistributeByPosition implements the read half of the paper's irregular
// access method: after a block-wise contiguous read, each particle is
// shipped to the processor whose sub-domain of grid g contains its
// position. The transpose/pack cost is charged as memory copies.
func (s *Sim) redistributeByPosition(ps *amr.ParticleSet, g core.GridMeta) amr.ParticleSet {
	parts := s.rowsByOwner(ps, g)
	s.r.CopyCost(int64(ps.N * rowSize()))
	return unpackRows(s.r.AlltoallvScratch(parts)...) // parts are garbage after this call
}

// parallelSortByID implements the write half: a parallel sample sort of
// this rank's particle rows by particle ID, returning the rank's sorted,
// globally ordered block as rows.
func (s *Sim) parallelSortByID(ps *amr.ParticleSet) []byte {
	rs := rowSize()
	rowBytes := packRows(ps)
	s.r.CopyCost(int64(len(rowBytes)))
	rows := make([][]byte, ps.N)
	for i := range rows {
		rows[i] = rowBytes[i*rs : (i+1)*rs]
	}
	sorted := psort.SampleSort(s.r, rows, rs, psort.IDKey(0))
	out := make([]byte, 0, len(sorted)*rs)
	for _, row := range sorted {
		out = append(out, row...)
	}
	return out
}

// sortRowsByIDLocal sorts row-major particle bytes in place by ID — the
// processor-0 sort the original HDF4 path performs while combining the
// top grid ("the particles and their associated data arrays are sorted in
// the original order in which the particles were initially read").
func (s *Sim) sortRowsByIDLocal(rows []byte) []byte {
	rs := rowSize()
	n := len(rows) / rs
	idx := make([]int, n)
	for i := range idx {
		idx[i] = i
	}
	key := func(i int) int64 {
		return int64(binary.LittleEndian.Uint64(rows[idx[i]*rs:]))
	}
	// simple bottom-up merge sort on the permutation (deterministic)
	tmp := make([]int, n)
	for width := 1; width < n; width *= 2 {
		for lo := 0; lo < n; lo += 2 * width {
			mid, hi := lo+width, lo+2*width
			if mid > n {
				mid = n
			}
			if hi > n {
				hi = n
			}
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
		s.r.Compute(int64(n) * int64(bits.Len(uint(n))))
	}
	out := make([]byte, len(rows))
	for k, i := range idx {
		copy(out[k*rs:], rows[i*rs:(i+1)*rs])
	}
	s.r.CopyCost(int64(len(rows)))
	return out
}
