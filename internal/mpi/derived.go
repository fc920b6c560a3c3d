package mpi

import (
	"cmp"
	"fmt"
	"slices"
	"sort"
)

// Datatype is any description of a byte-access pattern that can be
// flattened to sorted, disjoint runs — the common currency of this MPI
// model (file views, memory layouts). Subarray satisfies it, as do the
// derived-type constructors below, mirroring MPI_Type_contiguous,
// MPI_Type_vector and MPI_Type_indexed.
type Datatype interface {
	// Flatten returns the sorted, coalesced byte runs of the type.
	Flatten() []Run
	// Bytes returns the total payload size.
	Bytes() int64
}

// Contiguous is MPI_Type_contiguous: count elements of elemSize bytes.
type Contiguous struct {
	Count    int
	ElemSize int
}

// Flatten implements Datatype.
func (c Contiguous) Flatten() []Run {
	if c.Count <= 0 {
		return nil
	}
	return []Run{{Off: 0, Len: int64(c.Count) * int64(c.ElemSize)}}
}

// Bytes implements Datatype.
func (c Contiguous) Bytes() int64 { return int64(c.Count) * int64(c.ElemSize) }

// Vector is MPI_Type_vector: Count blocks of BlockLen elements, the start
// of each block Stride elements after the previous one. Stride must be at
// least BlockLen (overlapping vectors are not representable as disjoint
// runs).
type Vector struct {
	Count    int
	BlockLen int
	Stride   int
	ElemSize int
}

// Flatten implements Datatype. It panics on an overlapping stride — a
// programming error, as elsewhere in this package.
func (v Vector) Flatten() []Run {
	if v.Count <= 0 || v.BlockLen <= 0 {
		return nil
	}
	if v.Stride < v.BlockLen {
		panic(fmt.Sprintf("mpi: Vector stride %d < block length %d would overlap", v.Stride, v.BlockLen))
	}
	runs := make([]Run, 0, v.Count)
	for i := 0; i < v.Count; i++ {
		runs = append(runs, Run{
			Off: int64(i) * int64(v.Stride) * int64(v.ElemSize),
			Len: int64(v.BlockLen) * int64(v.ElemSize),
		})
	}
	return CoalesceRuns(runs)
}

// Bytes implements Datatype.
func (v Vector) Bytes() int64 {
	if v.Count <= 0 || v.BlockLen <= 0 {
		return 0
	}
	return int64(v.Count) * int64(v.BlockLen) * int64(v.ElemSize)
}

// Indexed is MPI_Type_indexed: block i has BlockLens[i] elements starting
// at element displacement Displs[i]. Blocks may be given in any order but
// must not overlap.
type Indexed struct {
	BlockLens []int
	Displs    []int
	ElemSize  int
}

// Flatten implements Datatype; it panics on mismatched slices or
// overlapping blocks.
func (x Indexed) Flatten() []Run {
	if len(x.BlockLens) != len(x.Displs) {
		panic(fmt.Sprintf("mpi: Indexed has %d block lengths and %d displacements",
			len(x.BlockLens), len(x.Displs)))
	}
	runs := make([]Run, 0, len(x.BlockLens))
	for i, bl := range x.BlockLens {
		if bl <= 0 {
			continue
		}
		runs = append(runs, Run{
			Off: int64(x.Displs[i]) * int64(x.ElemSize),
			Len: int64(bl) * int64(x.ElemSize),
		})
	}
	// Blocks with equal offsets overlap (their lengths are positive), and
	// CoalesceRuns then panics naming that offset whichever comes first: the
	// order among equals cannot show.
	slices.SortFunc(runs, func(a, b Run) int { return cmp.Compare(a.Off, b.Off) })
	return CoalesceRuns(runs) // panics on overlap
}

// Bytes implements Datatype.
func (x Indexed) Bytes() int64 {
	var n int64
	for _, bl := range x.BlockLens {
		if bl > 0 {
			n += int64(bl) * int64(x.ElemSize)
		}
	}
	return n
}

// Shifted places a datatype at a byte offset (the displacement of
// MPI_File_set_view, or an element within a struct-like layout).
type Shifted struct {
	Base Datatype
	Off  int64
}

// Flatten implements Datatype.
func (s Shifted) Flatten() []Run {
	base := s.Base.Flatten()
	out := make([]Run, len(base))
	for i, r := range base {
		out[i] = Run{Off: r.Off + s.Off, Len: r.Len}
	}
	return out
}

// Bytes implements Datatype.
func (s Shifted) Bytes() int64 { return s.Base.Bytes() }

// Concat composes datatypes laid out one after another, each shifted by
// the given absolute byte offsets — enough to express a struct-like file
// view (MPI_Type_create_struct with byte displacements).
func Concat(parts []Datatype, offsets []int64) Datatype {
	if len(parts) != len(offsets) {
		panic("mpi: Concat needs one offset per part")
	}
	return concatType{parts: parts, offsets: offsets}
}

type concatType struct {
	parts   []Datatype
	offsets []int64
}

func (c concatType) Flatten() []Run {
	var runs []Run
	for i, p := range c.parts {
		for _, r := range p.Flatten() {
			runs = append(runs, Run{Off: r.Off + c.offsets[i], Len: r.Len})
		}
	}
	sort.Slice(runs, func(i, j int) bool { return runs[i].Off < runs[j].Off })
	return CoalesceRuns(runs)
}

func (c concatType) Bytes() int64 {
	var n int64
	for _, p := range c.parts {
		n += p.Bytes()
	}
	return n
}

// Interface checks: Subarray and the derived constructors are Datatypes.
var (
	_ Datatype = Subarray{}
	_ Datatype = Contiguous{}
	_ Datatype = Vector{}
	_ Datatype = Indexed{}
	_ Datatype = Shifted{}
	_ Datatype = concatType{}
)
