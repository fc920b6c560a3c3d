// Package amr implements the structured adaptive-mesh-refinement substrate
// the ENZO application runs on: a dynamic hierarchy of nested grid patches
// (Berger–Colella style), each carrying uniformly sampled baryon fields
// (3-D arrays) and a set of particles (1-D arrays), plus cell flagging,
// refinement, prolongation of data onto child grids and load balancing.
//
// The cosmology itself is synthetic: a deterministic density field made of
// Gaussian clumps stands in for the gravitational collapse the real code
// computes. For the paper's purposes only the *structure* matters — the
// ranks and sizes of the arrays, the (Block,Block,Block) partitioning of
// fields, and the highly irregular spatial distribution of particles.
package amr

import (
	"encoding/binary"
	"fmt"
	"math"
)

// FieldNames lists the baryon fields ENZO dumps for every grid, in the
// fixed order the application accesses them (Section 2.2 of the paper).
var FieldNames = []string{
	"density",
	"total_energy",
	"internal_energy",
	"velocity_x",
	"velocity_y",
	"velocity_z",
	"temperature",
	"dark_matter",
}

// FieldElemSize is the element size of every baryon field (float32).
const FieldElemSize = 4

// ParticleArray describes one of the 1-D particle arrays.
type ParticleArray struct {
	Name     string
	ElemSize int
}

// ParticleArrays lists the per-particle arrays in ENZO's fixed access
// order: the ID, three double-precision positions, three single-precision
// velocities and the mass.
var ParticleArrays = []ParticleArray{
	{"particle_id", 8},
	{"position_x", 8},
	{"position_y", 8},
	{"position_z", 8},
	{"velocity_px", 4},
	{"velocity_py", 4},
	{"velocity_pz", 4},
	{"particle_mass", 4},
}

// BytesPerParticle is the total storage per particle across all arrays.
func BytesPerParticle() int64 {
	var n int64
	for _, a := range ParticleArrays {
		n += int64(a.ElemSize)
	}
	return n
}

// Grid is one patch of the AMR hierarchy.
type Grid struct {
	ID    int
	Level int
	// Dims are the cell counts ordered (z, y, x): the x dimension varies
	// fastest in memory and in the file, as in ENZO's storage convention.
	Dims [3]int
	// LeftEdge/RightEdge bound the patch in the unit computational domain.
	LeftEdge, RightEdge [3]float64

	// Fields holds one byte slice per FieldNames entry (float32 cells).
	Fields [][]byte
	// Particles within this patch.
	Particles ParticleSet

	Parent   int // grid ID, -1 for the root
	Children []int
}

// Cells returns the number of cells in the patch.
func (g *Grid) Cells() int64 {
	return int64(g.Dims[0]) * int64(g.Dims[1]) * int64(g.Dims[2])
}

// FieldBytes returns the storage for all baryon fields of the patch.
func (g *Grid) FieldBytes() int64 {
	return g.Cells() * FieldElemSize * int64(len(FieldNames))
}

// ParticleBytes returns the storage for all particle arrays of the patch.
func (g *Grid) ParticleBytes() int64 {
	return int64(g.Particles.N) * BytesPerParticle()
}

// TotalBytes is the patch's full dump footprint.
func (g *Grid) TotalBytes() int64 { return g.FieldBytes() + g.ParticleBytes() }

// CellWidth returns the cell spacing per dimension.
func (g *Grid) CellWidth() [3]float64 {
	var w [3]float64
	for d := 0; d < 3; d++ {
		w[d] = (g.RightEdge[d] - g.LeftEdge[d]) / float64(g.Dims[d])
	}
	return w
}

// cellIndex converts (z,y,x) to the flat cell index.
func (g *Grid) cellIndex(z, y, x int) int64 {
	return (int64(z)*int64(g.Dims[1])+int64(y))*int64(g.Dims[2]) + int64(x)
}

// Field returns the raw bytes of a named field.
func (g *Grid) Field(name string) []byte {
	for i, n := range FieldNames {
		if n == name {
			return g.Fields[i]
		}
	}
	panic(fmt.Sprintf("amr: no field %q", name))
}

// FieldValue reads field f at cell (z,y,x).
func (g *Grid) FieldValue(f int, z, y, x int) float32 {
	off := g.cellIndex(z, y, x) * FieldElemSize
	return math.Float32frombits(binary.LittleEndian.Uint32(g.Fields[f][off:]))
}

// ParticleSet stores the particle arrays of one grid. Arrays[i] matches
// ParticleArrays[i]; all have N elements.
type ParticleSet struct {
	N      int
	Arrays [][]byte
}

// NewParticleSet allocates storage for n particles.
func NewParticleSet(n int) ParticleSet {
	ps := ParticleSet{N: n, Arrays: make([][]byte, len(ParticleArrays))}
	for i, a := range ParticleArrays {
		ps.Arrays[i] = make([]byte, n*a.ElemSize)
	}
	return ps
}

// ID returns particle i's identifier.
func (ps *ParticleSet) ID(i int) int64 {
	return int64(binary.LittleEndian.Uint64(ps.Arrays[0][i*8:]))
}

// SetID sets particle i's identifier.
func (ps *ParticleSet) SetID(i int, id int64) {
	binary.LittleEndian.PutUint64(ps.Arrays[0][i*8:], uint64(id))
}

// Position returns particle i's position (x, y, z order of storage arrays
// 1..3 mapped to dimension indices 2,1,0).
func (ps *ParticleSet) Position(i int) [3]float64 {
	var p [3]float64
	// array 1 = position_x, 2 = position_y, 3 = position_z
	p[2] = math.Float64frombits(binary.LittleEndian.Uint64(ps.Arrays[1][i*8:]))
	p[1] = math.Float64frombits(binary.LittleEndian.Uint64(ps.Arrays[2][i*8:]))
	p[0] = math.Float64frombits(binary.LittleEndian.Uint64(ps.Arrays[3][i*8:]))
	return p // ordered (z, y, x) to match Dims
}

// SetPosition stores particle i's (z,y,x) position.
func (ps *ParticleSet) SetPosition(i int, p [3]float64) {
	binary.LittleEndian.PutUint64(ps.Arrays[1][i*8:], math.Float64bits(p[2]))
	binary.LittleEndian.PutUint64(ps.Arrays[2][i*8:], math.Float64bits(p[1]))
	binary.LittleEndian.PutUint64(ps.Arrays[3][i*8:], math.Float64bits(p[0]))
}

// Row extracts particle i's bytes from every array, concatenated — the
// unit of particle redistribution.
func (ps *ParticleSet) Row(i int) []byte {
	out := make([]byte, 0, BytesPerParticle())
	for k, a := range ParticleArrays {
		out = append(out, ps.Arrays[k][i*a.ElemSize:(i+1)*a.ElemSize]...)
	}
	return out
}

// SetRow stores a concatenated particle row at index i.
func (ps *ParticleSet) SetRow(i int, row []byte) {
	p := 0
	for k, a := range ParticleArrays {
		copy(ps.Arrays[k][i*a.ElemSize:(i+1)*a.ElemSize], row[p:p+a.ElemSize])
		p += a.ElemSize
	}
}

// Select returns a new set holding particles idx[0], idx[1], ... of ps, in
// that order, copied array by array with one fixed-width load and store per
// element.
func (ps *ParticleSet) Select(idx []int) ParticleSet {
	out := NewParticleSet(len(idx))
	le := binary.LittleEndian
	for k, a := range ParticleArrays {
		src, dst := ps.Arrays[k], out.Arrays[k]
		switch a.ElemSize {
		case 8:
			for j, i := range idx {
				le.PutUint64(dst[j*8:], le.Uint64(src[i*8:]))
			}
		case 4:
			for j, i := range idx {
				le.PutUint32(dst[j*4:], le.Uint32(src[i*4:]))
			}
		default:
			panic(fmt.Sprintf("amr: particle array %q has %d-byte elements", a.Name, a.ElemSize))
		}
	}
	return out
}

// Hierarchy is the grid tree. Grids are indexed by ID; the root has ID 0.
// Per the paper, the hierarchy metadata is replicated on every processor
// while the grids' data are distributed.
type Hierarchy struct {
	Grids []*Grid
}

// Root returns the top grid.
func (h *Hierarchy) Root() *Grid { return h.Grids[0] }

// Add appends a grid, assigning its ID and linking it to its parent.
func (h *Hierarchy) Add(g *Grid, parent int) *Grid {
	g.ID = len(h.Grids)
	g.Parent = parent
	h.Grids = append(h.Grids, g)
	if parent >= 0 {
		h.Grids[parent].Children = append(h.Grids[parent].Children, g.ID)
	}
	return g
}

// Level returns all grids at the given refinement level, in ID order.
func (h *Hierarchy) Level(l int) []*Grid {
	var out []*Grid
	for _, g := range h.Grids {
		if g.Level == l {
			out = append(out, g)
		}
	}
	return out
}

// MaxLevel returns the deepest refinement level present.
func (h *Hierarchy) MaxLevel() int {
	m := 0
	for _, g := range h.Grids {
		if g.Level > m {
			m = g.Level
		}
	}
	return m
}

// Subgrids returns every grid except the root, in ID order.
func (h *Hierarchy) Subgrids() []*Grid {
	if len(h.Grids) == 0 {
		return nil
	}
	return h.Grids[1:]
}

// TotalBytes sums the dump footprint of all grids.
func (h *Hierarchy) TotalBytes() int64 {
	var n int64
	for _, g := range h.Grids {
		n += g.TotalBytes()
	}
	return n
}

// TotalParticles counts particles across the hierarchy.
func (h *Hierarchy) TotalParticles() int64 {
	var n int64
	for _, g := range h.Grids {
		n += int64(g.Particles.N)
	}
	return n
}
