package enzo

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math"

	"repro/internal/amr"
	"repro/internal/core"
	"repro/internal/mpi"
	"repro/internal/psort"
)

// The particle row: one particle's elements of amr.ParticleArrays back to
// back in array order, the unit of redistribution and of the ID sort. Every
// per-particle pass loads and stores rows and columns at these fixed offsets
// instead of walking the array list; TestParticleRowLayout holds them to
// amr.ParticleArrays, so a changed list fails a test instead of corrupting
// a dump.
const (
	rowID    = 0  // particle_id, int64
	rowPosX  = 8  // position_x, float64
	rowPosY  = 16 // position_y, float64
	rowPosZ  = 24 // position_z, float64
	rowVelX  = 32 // velocity_px, float32
	rowVelY  = 36 // velocity_py, float32
	rowVelZ  = 40 // velocity_pz, float32
	rowMass  = 44 // particle_mass, float32
	rowBytes = 48
)

// rowOffsets[k] is where array k starts in a row and rowOffsets[k+1] where
// it ends. In a column-blocked buffer of n particles — the columns back to
// back in array order, as files store them — column k is bytes
// n*rowOffsets[k] to n*rowOffsets[k+1].
var rowOffsets = [...]int{rowID, rowPosX, rowPosY, rowPosZ, rowVelX, rowVelY, rowVelZ, rowMass, rowBytes}

// rowSize is the byte size of one particle row.
func rowSize() int { return int(amr.BytesPerParticle()) }

// appendRows appends every particle of ps, as a row, to parts[owners[i]] —
// or to parts[0] when owners is nil. Each part has room for its rows.
func appendRows(parts [][]byte, ps *amr.ParticleSet, owners []int32) {
	le, c := binary.LittleEndian, ps.Arrays[:len(rowOffsets)-1]
	id, x, y, z, vx, vy, vz, m := c[0], c[1], c[2], c[3], c[4], c[5], c[6], c[7]
	for i := 0; i < ps.N; i++ {
		o := int32(0)
		if owners != nil {
			o = owners[i]
		}
		p := parts[o]
		n := len(p)
		parts[o] = p[:n+rowBytes]
		r := p[n : n+rowBytes]
		le.PutUint64(r[rowID:], le.Uint64(id[8*i:]))
		le.PutUint64(r[rowPosX:], le.Uint64(x[8*i:]))
		le.PutUint64(r[rowPosY:], le.Uint64(y[8*i:]))
		le.PutUint64(r[rowPosZ:], le.Uint64(z[8*i:]))
		le.PutUint32(r[rowVelX:], le.Uint32(vx[4*i:]))
		le.PutUint32(r[rowVelY:], le.Uint32(vy[4*i:]))
		le.PutUint32(r[rowVelZ:], le.Uint32(vz[4*i:]))
		le.PutUint32(r[rowMass:], le.Uint32(m[4*i:]))
	}
}

// packRows converts a column-stored particle set into row-major bytes.
func packRows(ps *amr.ParticleSet) []byte {
	out := [][]byte{make([]byte, 0, ps.N*rowBytes)}
	appendRows(out, ps, nil)
	return out[0]
}

// unpackRows converts row-major bytes — one buffer or the chunks of a
// gather or an exchange, taken in order — back into a column-stored set.
func unpackRows(chunks ...[]byte) amr.ParticleSet {
	flat, cols := flatColumnsFromRows(chunks...)
	return amr.ParticleSet{N: len(flat) / rowBytes, Arrays: cols}
}

// columnsOf returns the columns of a column-blocked buffer of n particles,
// each capped at its own end.
func columnsOf(flat []byte, n int) [][]byte {
	cols := make([][]byte, len(rowOffsets)-1)
	for k := range cols {
		lo, hi := n*rowOffsets[k], n*rowOffsets[k+1]
		cols[k] = flat[lo:hi:hi]
	}
	return cols
}

// flatColumnsFromRows splits row-major particle bytes (chunks taken in
// order, each a whole number of rows) into one column per particle array
// (the file storage layout), all in a single column-blocked buffer, so the
// same bytes serve directly as a WriteList payload (entries in array order)
// without a second gather copy.
func flatColumnsFromRows(chunks ...[]byte) (flat []byte, cols [][]byte) {
	n := 0
	for _, c := range chunks {
		n += len(c) / rowBytes
	}
	flat = make([]byte, n*rowBytes)
	cols = columnsOf(flat, n)
	le := binary.LittleEndian
	id, x, y, z, vx, vy, vz, m := cols[0], cols[1], cols[2], cols[3], cols[4], cols[5], cols[6], cols[7]
	i := 0
	for _, c := range chunks {
		for ; len(c) >= rowBytes; c, i = c[rowBytes:], i+1 {
			r := c[:rowBytes]
			le.PutUint64(id[8*i:], le.Uint64(r[rowID:]))
			le.PutUint64(x[8*i:], le.Uint64(r[rowPosX:]))
			le.PutUint64(y[8*i:], le.Uint64(r[rowPosY:]))
			le.PutUint64(z[8*i:], le.Uint64(r[rowPosZ:]))
			le.PutUint32(vx[4*i:], le.Uint32(r[rowVelX:]))
			le.PutUint32(vy[4*i:], le.Uint32(r[rowVelY:]))
			le.PutUint32(vz[4*i:], le.Uint32(r[rowVelZ:]))
			le.PutUint32(m[4*i:], le.Uint32(r[rowMass:]))
		}
	}
	return flat, cols
}

// columnBlocked returns ps's columns back to back in array order: a
// particle message of the same N*rowBytes bytes as its rows, with no
// transpose on either side. bytes.Join leaves the buffer unzeroed before
// filling it.
func columnBlocked(ps *amr.ParticleSet) []byte {
	return bytes.Join(ps.Arrays, nil)
}

// gatherColumns assembles column-blocked chunks, taken in order and each
// packed, into one set whose column k is the chunks' columns k back to
// back: the particles keep the chunks' order, as unpackRows keeps it for
// rows.
func gatherColumns(chunks []mpi.View) amr.ParticleSet {
	n := 0
	pieces := make([][]byte, 0, 64) // on the stack for up to 8 chunks
	for k := range len(rowOffsets) - 1 {
		for _, v := range chunks {
			c := v.Base
			m := len(c) / rowBytes
			pieces = append(pieces, c[m*rowOffsets[k]:m*rowOffsets[k+1]])
			if k == 0 {
				n += m
			}
		}
	}
	return amr.ParticleSet{N: n, Arrays: columnsOf(bytes.Join(pieces, nil), n)}
}

// ownersByPosition maps every particle of ps to the rank whose sub-domain
// of grid g contains its position — core.OwnerOfPosition, read straight
// from the position columns — and counts each rank's share.
func (s *Sim) ownersByPosition(ps *amr.ParticleSet, g core.GridMeta) (owners []int32, counts []int) {
	owners = make([]int32, ps.N)
	counts = make([]int, s.pz*s.py*s.px)
	// Per dimension, each cell's block index times the block's stride in
	// the rank numbering (iz*py+iy)*px+ix: an owner is the sum of three
	// loads. The table lives in the rank's scratch.
	if need := g.Dims[0] + g.Dims[1] + g.Dims[2]; cap(s.cellOwners) < need {
		s.cellOwners = make([]int32, 0, need)
	}
	t := core.AppendCellBlocks(s.cellOwners[:0], g.Dims[0], s.pz, s.py*s.px)
	t = core.AppendCellBlocks(t, g.Dims[1], s.py, s.px)
	t = core.AppendCellBlocks(t, g.Dims[2], s.px, 1)
	s.cellOwners = t
	tz, ty, tx := t[:g.Dims[0]], t[g.Dims[0]:g.Dims[0]+g.Dims[1]], t[g.Dims[0]+g.Dims[1]:]
	lo, hi, dims := g.LeftEdge, g.RightEdge, g.Dims
	le := binary.LittleEndian
	xs, ys, zs := ps.Arrays[1][:8*ps.N], ps.Arrays[2][:8*ps.N], ps.Arrays[3][:8*ps.N]
	for i := range owners {
		z := math.Float64frombits(le.Uint64(zs[8*i:]))
		y := math.Float64frombits(le.Uint64(ys[8*i:]))
		x := math.Float64frombits(le.Uint64(xs[8*i:]))
		o := tz[core.CellOfCoord(z, lo[0], hi[0], dims[0])] +
			ty[core.CellOfCoord(y, lo[1], hi[1], dims[1])] +
			tx[core.CellOfCoord(x, lo[2], hi[2], dims[2])]
		owners[i] = o
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
	parts := carve(counts, rowBytes)
	appendRows(parts, ps, owners)
	return parts
}

// scatterColumn appends element i of column col (elem bytes: 8 or 4) to
// parts[owners[i]] for every particle i — one array's share of the HDF4
// root's scatter. parts come from carve with room for exactly their owner's
// elements.
func scatterColumn(parts [][]byte, col []byte, elem int, owners []int32) {
	le := binary.LittleEndian
	switch elem {
	case 8:
		for i, o := range owners {
			p := parts[o]
			n := len(p)
			parts[o] = p[:n+8]
			le.PutUint64(p[n:n+8], le.Uint64(col[8*i:]))
		}
	case 4:
		for i, o := range owners {
			p := parts[o]
			n := len(p)
			parts[o] = p[:n+4]
			le.PutUint32(p[n:n+4], le.Uint32(col[4*i:]))
		}
	default:
		panic(fmt.Sprintf("enzo: particle element of %d bytes", elem))
	}
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
	rows := packRows(ps)
	s.r.CopyCost(int64(len(rows)))
	return psort.SampleSort(s.r, rows, rowBytes, psort.IDKey(rowID))
}

// sortRowsByIDLocal sorts row-major particle bytes — one buffer or the
// chunks of a gather, taken in order — by ID into a new buffer: the
// processor-0 sort the original HDF4 path performs while combining the top
// grid ("the particles and their associated data arrays are sorted in the
// original order in which the particles were initially read").
func (s *Sim) sortRowsByIDLocal(chunks ...[]byte) []byte {
	out := psort.LocalSort(s.r, chunks, rowBytes, psort.IDKey(rowID))
	s.r.CopyCost(int64(len(out)))
	return out
}
