package core

import (
	"fmt"

	"repro/internal/mpi"
)

// blockIndexOfCell inverts the remainder-aware block decomposition used by
// mpi.BlockDecompose3D: given a cell index along a dimension of n cells
// split into p blocks, it returns the block that owns the cell.
func blockIndexOfCell(cell, n, p int) int {
	if cell < 0 || cell >= n {
		panic(fmt.Sprintf("core: cell %d outside dimension of %d", cell, n))
	}
	base := n / p
	rem := n % p
	cut := rem * (base + 1)
	if cell < cut {
		return cell / (base + 1)
	}
	return rem + (cell-cut)/base
}

// AppendCellBlocks appends, for each cell 0..n-1 of a dimension split into
// p blocks, stride times the index of the block that owns it: the table form
// of blockIndexOfCell, built once per grid so that a position's owner costs
// three loads instead of six divisions.
func AppendCellBlocks(dst []int32, n, p, stride int) []int32 {
	for c := 0; c < n; c++ {
		dst = append(dst, int32(blockIndexOfCell(c, n, p)*stride))
	}
	return dst
}

// CellOfCoord maps a coordinate to its cell along one dimension of n cells
// spanning [left, right), clamped to the dimension. A NaN or infinite
// coordinate goes through Go's float-to-int conversion, whose result is
// platform-specific, and then through the same clamp.
func CellOfCoord(x, left, right float64, n int) int {
	span := right - left
	f := (x - left) / span
	c := int(f * float64(n))
	if c < 0 {
		c = 0
	}
	if c >= n {
		c = n - 1
	}
	return c
}

// CellOfPosition maps a physical position (ordered z,y,x) to the owning
// cell of a grid, clamped to the grid's extent.
func CellOfPosition(pos [3]float64, g GridMeta) [3]int {
	var cell [3]int
	for d := 0; d < 3; d++ {
		cell[d] = CellOfCoord(pos[d], g.LeftEdge[d], g.RightEdge[d], g.Dims[d])
	}
	return cell
}

// OwnerOfPosition returns the rank whose (Block,Block,Block) sub-domain of
// grid g contains the given position, for a pz*py*px process grid. It is
// exactly consistent with mpi.BlockDecompose3D: a particle belongs to the
// rank whose field block contains its cell.
func OwnerOfPosition(pos [3]float64, g GridMeta, pz, py, px int) int {
	cell := CellOfPosition(pos, g)
	iz := blockIndexOfCell(cell[0], g.Dims[0], pz)
	iy := blockIndexOfCell(cell[1], g.Dims[1], py)
	ix := blockIndexOfCell(cell[2], g.Dims[2], px)
	return (iz*py+iy)*px + ix
}

// FieldSubarray returns rank r's (Block,Block,Block) piece of one of grid
// g's baryon fields for a pz*py*px process grid.
func FieldSubarray(g GridMeta, pz, py, px, r int) mpi.Subarray {
	return mpi.BlockDecompose3D(g.Dims, pz, py, px, r, 4)
}

// BlockRange returns rank r's contiguous share [lo, hi) of n items split
// block-wise over size ranks (remainder to the lower ranks) — the 1-D
// partition used for block-wise particle I/O.
func BlockRange(n int64, size, r int) (lo, hi int64) {
	base := n / int64(size)
	rem := n % int64(size)
	if int64(r) < rem {
		lo = int64(r) * (base + 1)
		hi = lo + base + 1
		return
	}
	lo = rem*(base+1) + (int64(r)-rem)*base
	hi = lo + base
	return
}
