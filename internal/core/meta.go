// Package core implements the paper's primary contribution: the metadata
// that characterizes an AMR application's I/O — the rank and dimensions of
// every data array, its partitioning pattern (regular (Block,Block,Block)
// for the 3-D baryon fields, irregular for the 1-D particle arrays), and
// the fixed order in which a grid's arrays are accessed — plus the
// machinery those metadata enable: computing every array's offset inside a
// single shared dump file without any directory lookups, and selecting the
// optimal I/O method per access pattern (Section 3 of the paper).
package core

import (
	"encoding/json"
	"fmt"

	"repro/internal/amr"
)

// Pattern classifies how an array is partitioned among processors.
type Pattern int

// Partition patterns discovered in the ENZO application (Figure 4 of the
// paper).
const (
	// PatternRegular is the (Block,Block,Block) partition of the 3-D
	// baryon field arrays.
	PatternRegular Pattern = iota
	// PatternIrregular is the position-dependent partition of the 1-D
	// particle arrays.
	PatternIrregular
)

func (p Pattern) String() string {
	switch p {
	case PatternRegular:
		return "regular(B,B,B)"
	case PatternIrregular:
		return "irregular"
	}
	return "unknown"
}

// ArrayMeta is the per-array metadata record: "the rank and dimensions of
// data arrays, the access patterns of arrays, and the data access order".
type ArrayMeta struct {
	Name     string
	Rank     int
	Dims     []int
	ElemSize int
	Pattern  Pattern
	Order    int // position in the grid's fixed access order
}

// Bytes returns the array's total storage.
func (a ArrayMeta) Bytes() int64 {
	n := int64(a.ElemSize)
	for _, d := range a.Dims {
		n *= int64(d)
	}
	return n
}

// GridMeta is the static hierarchy metadata for one grid — what ENZO keeps
// replicated on every processor while the grid data itself is distributed.
type GridMeta struct {
	ID         int
	Level      int
	Parent     int
	Dims       [3]int
	NParticles int64
	LeftEdge   [3]float64
	RightEdge  [3]float64
}

// Arrays returns the grid's arrays in the fixed access order: the eight
// 3-D baryon fields, then the 1-D particle arrays.
func (g GridMeta) Arrays() []ArrayMeta {
	out := make([]ArrayMeta, 0, len(amr.FieldNames)+len(amr.ParticleArrays))
	order := 0
	for _, name := range amr.FieldNames {
		out = append(out, ArrayMeta{
			Name:     name,
			Rank:     3,
			Dims:     []int{g.Dims[0], g.Dims[1], g.Dims[2]},
			ElemSize: amr.FieldElemSize,
			Pattern:  PatternRegular,
			Order:    order,
		})
		order++
	}
	for _, pa := range amr.ParticleArrays {
		out = append(out, ArrayMeta{
			Name:     pa.Name,
			Rank:     1,
			Dims:     []int{int(g.NParticles)},
			ElemSize: pa.ElemSize,
			Pattern:  PatternIrregular,
			Order:    order,
		})
		order++
	}
	return out
}

// Bytes returns the grid's full dump footprint.
func (g GridMeta) Bytes() int64 {
	var n int64
	for _, a := range g.Arrays() {
		n += a.Bytes()
	}
	return n
}

// Cells returns the grid's cell count.
func (g GridMeta) Cells() int64 {
	return int64(g.Dims[0]) * int64(g.Dims[1]) * int64(g.Dims[2])
}

// HierarchyMeta is the replicated hierarchy description: enough to compute
// every array's location in a shared dump file and to partition every
// array without reading any file metadata.
type HierarchyMeta struct {
	Grids []GridMeta
}

// FromHierarchy extracts the metadata from an in-memory AMR hierarchy.
func FromHierarchy(h *amr.Hierarchy) *HierarchyMeta {
	m := &HierarchyMeta{}
	for _, g := range h.Grids {
		m.Grids = append(m.Grids, GridMeta{
			ID:         g.ID,
			Level:      g.Level,
			Parent:     g.Parent,
			Dims:       g.Dims,
			NParticles: int64(g.Particles.N),
			LeftEdge:   g.LeftEdge,
			RightEdge:  g.RightEdge,
		})
	}
	return m
}

// Top returns the root grid's metadata.
func (m *HierarchyMeta) Top() GridMeta { return m.Grids[0] }

// Subgrids returns all non-root grid metadata.
func (m *HierarchyMeta) Subgrids() []GridMeta {
	if len(m.Grids) == 0 {
		return nil
	}
	return m.Grids[1:]
}

// TotalBytes is the whole hierarchy's dump footprint.
func (m *HierarchyMeta) TotalBytes() int64 {
	var n int64
	for _, g := range m.Grids {
		n += g.Bytes()
	}
	return n
}

// Encode serializes the metadata (the ".hierarchy" file contents).
func (m *HierarchyMeta) Encode() []byte {
	b, err := json.Marshal(m)
	if err != nil {
		panic(err) // plain data; cannot fail
	}
	return b
}

// DecodeHierarchyMeta parses a serialized hierarchy file.
func DecodeHierarchyMeta(b []byte) (*HierarchyMeta, error) {
	m := &HierarchyMeta{}
	if err := json.Unmarshal(b, m); err != nil {
		return nil, fmt.Errorf("core: bad hierarchy metadata: %w", err)
	}
	return m, nil
}

// Layout computes array placements inside a single shared dump file:
// grids in ID order, each grid's arrays in the fixed access order, no
// padding and no in-file directory — offsets follow purely from the
// replicated metadata. This is the enabler for "letting all processors
// write their subgrids into a single shared file" (Section 3.3).
type Layout struct {
	meta   *HierarchyMeta
	gridAt []int64 // byte offset of each grid's first array
	total  int64
}

// NewLayout builds the shared-file layout for a hierarchy.
func NewLayout(m *HierarchyMeta) *Layout {
	l := &Layout{meta: m, gridAt: make([]int64, len(m.Grids))}
	var off int64
	for i, g := range m.Grids {
		l.gridAt[i] = off
		off += g.Bytes()
	}
	l.total = off
	return l
}

// TotalBytes returns the shared file's size.
func (l *Layout) TotalBytes() int64 { return l.total }

// GridOffset returns the byte offset of a grid's first array.
func (l *Layout) GridOffset(gridID int) int64 { return l.gridAt[gridID] }

// ArrayOffset returns the byte offset and length of a named array of a
// grid inside the shared file.
//
// It walks the fixed access order of GridMeta.Arrays arithmetically rather
// than building that list: the raw-file paths ask once per field and per
// particle column of every grid they touch.
func (l *Layout) ArrayOffset(gridID int, name string) (off, length int64) {
	g := &l.meta.Grids[gridID]
	off = l.gridAt[gridID]
	length = g.Cells() * amr.FieldElemSize
	for _, field := range amr.FieldNames {
		if field == name {
			return off, length
		}
		off += length
	}
	for _, pa := range amr.ParticleArrays {
		length = g.NParticles * int64(pa.ElemSize)
		if pa.Name == name {
			return off, length
		}
		off += length
	}
	panic(fmt.Sprintf("core: grid %d has no array %q", gridID, name))
}

// Method is an I/O strategy for one array access.
type Method int

// The methods of Section 3: collective two-phase I/O for regular
// partitions, block-wise independent I/O plus inter-processor
// redistribution for irregular partitions, and the original serial
// root-processor funnel.
const (
	// MethodCollective: file views + two-phase collective I/O.
	MethodCollective Method = iota
	// MethodBlockwiseRedistribute: contiguous block-wise independent I/O
	// followed (reads) or preceded (writes, via parallel sort) by a data
	// redistribution among processors.
	MethodBlockwiseRedistribute
	// MethodSerialRoot: processor 0 performs all file access and
	// scatters/gathers over the network (the original HDF4 design).
	MethodSerialRoot
)

func (m Method) String() string {
	switch m {
	case MethodCollective:
		return "collective two-phase"
	case MethodBlockwiseRedistribute:
		return "block-wise + redistribution"
	case MethodSerialRoot:
		return "serial via root"
	}
	return "unknown"
}

// Recommend selects the optimal method for an array access given its
// pattern metadata — the paper's central optimization rule: regular
// (Block,Block,Block) partitions use collective I/O; irregular particle
// partitions use non-collective block-wise I/O with redistribution,
// "because the block-wise pattern for 1-D arrays always results in
// contiguous access in each processor".
func Recommend(a ArrayMeta, parallelIO bool) Method {
	if !parallelIO {
		return MethodSerialRoot
	}
	if a.Pattern == PatternRegular && a.Rank > 1 {
		return MethodCollective
	}
	return MethodBlockwiseRedistribute
}
