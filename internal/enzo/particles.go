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

// packRows converts a column-stored particle set into row-major bytes.
func packRows(ps *amr.ParticleSet) []byte {
	rs := rowSize()
	out := make([]byte, ps.N*rs)
	for i := 0; i < ps.N; i++ {
		off := i * rs
		for k, a := range amr.ParticleArrays {
			off += copy(out[off:], ps.Arrays[k][i*a.ElemSize:(i+1)*a.ElemSize])
		}
	}
	return out
}

// unpackRows converts row-major bytes back into a column-stored set.
func unpackRows(rows []byte) amr.ParticleSet {
	rs := rowSize()
	n := len(rows) / rs
	ps := amr.NewParticleSet(n)
	for i := 0; i < n; i++ {
		ps.SetRow(i, rows[i*rs:(i+1)*rs])
	}
	return ps
}

// rowPosition reads the (z,y,x) position out of a row.
func rowPosition(row []byte) [3]float64 {
	px := math.Float64frombits(binary.LittleEndian.Uint64(row[8:]))
	py := math.Float64frombits(binary.LittleEndian.Uint64(row[16:]))
	pz := math.Float64frombits(binary.LittleEndian.Uint64(row[24:]))
	return [3]float64{pz, py, px}
}

// flatColumnsFromRows splits row-major particle bytes into one column per
// particle array (the file storage layout), all in a single backing
// buffer: column k occupies flat[pos_k : pos_k+n*elem_k] in array order,
// so the same bytes serve directly as a WriteList payload (entries in
// array order) without a second gather copy.
func flatColumnsFromRows(rows []byte) (flat []byte, cols [][]byte) {
	rs := rowSize()
	n := len(rows) / rs
	flat = make([]byte, len(rows))
	cols = make([][]byte, len(amr.ParticleArrays))
	pos := 0
	for k, a := range amr.ParticleArrays {
		cols[k] = flat[pos : pos+n*a.ElemSize]
		pos += n * a.ElemSize
	}
	for i := 0; i < n; i++ {
		off := 0
		for k, a := range amr.ParticleArrays {
			copy(cols[k][i*a.ElemSize:], rows[i*rs+off:i*rs+off+a.ElemSize])
			off += a.ElemSize
		}
	}
	return flat, cols
}

// rowsFromColumns reassembles row-major bytes from per-array buffers.
func rowsFromColumns(cols [][]byte) []byte {
	if len(cols) != len(amr.ParticleArrays) {
		panic("enzo: wrong column count")
	}
	n := len(cols[0]) / amr.ParticleArrays[0].ElemSize
	rs := rowSize()
	out := make([]byte, n*rs)
	for i := 0; i < n; i++ {
		off := 0
		for k, a := range amr.ParticleArrays {
			copy(out[i*rs+off:], cols[k][i*a.ElemSize:(i+1)*a.ElemSize])
			off += a.ElemSize
		}
	}
	return out
}

// redistributeByPosition implements the read half of the paper's irregular
// access method: after a block-wise contiguous read, each particle is
// shipped to the processor whose sub-domain of grid g contains its
// position. The transpose/pack cost is charged as memory copies.
func (s *Sim) redistributeByPosition(rows []byte, g core.GridMeta) amr.ParticleSet {
	rs := rowSize()
	n := len(rows) / rs
	// Two passes over the rows: count each owner's share, then copy into
	// exactly sized slices of one backing buffer — no per-owner append
	// growth.
	counts := make([]int, s.r.Size())
	owners := make([]int32, n)
	for i := 0; i < n; i++ {
		o := core.OwnerOfPosition(rowPosition(rows[i*rs:(i+1)*rs]), g, s.pz, s.py, s.px)
		owners[i] = int32(o)
		counts[o]++
	}
	backing := make([]byte, n*rs)
	parts := make([][]byte, s.r.Size())
	pos := 0
	for o, c := range counts {
		parts[o] = backing[pos*rs : pos*rs : (pos+c)*rs]
		pos += c
	}
	for i := 0; i < n; i++ {
		parts[owners[i]] = append(parts[owners[i]], rows[i*rs:(i+1)*rs]...)
	}
	s.r.CopyCost(int64(len(rows)))
	recvd := s.r.AlltoallvScratch(parts) // parts and their backing are garbage after this call
	var total int
	for _, chunk := range recvd {
		total += len(chunk)
	}
	all := make([]byte, 0, total)
	for _, chunk := range recvd {
		all = append(all, chunk...)
	}
	return unpackRows(all)
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
