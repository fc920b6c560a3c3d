package mpi

import (
	"cmp"
	"fmt"
	"math/rand"
	"slices"
	"testing"
	"testing/quick"
)

// The MPI derived-type constructors below are a reference model, not part of
// the package: no I/O path builds a view from them (every view is a Subarray
// or a hand-built run list). They spell MPI_Type_contiguous, _vector,
// _indexed and _create_struct out element by element, and
// TestSubarrayFlattenMatchesDerivedReference holds Subarray's analytic
// coalescing to them.

// datatype is any description of a byte-access pattern that can be flattened
// to sorted, disjoint runs.
type datatype interface {
	Flatten() []Run
	Bytes() int64
}

// Contiguous is MPI_Type_contiguous: count elements of elemSize bytes.
type Contiguous struct {
	Count    int
	ElemSize int
}

func (c Contiguous) Flatten() []Run {
	if c.Count <= 0 {
		return nil
	}
	return []Run{{Off: 0, Len: int64(c.Count) * int64(c.ElemSize)}}
}

func (c Contiguous) Bytes() int64 { return int64(c.Count) * int64(c.ElemSize) }

// Vector is MPI_Type_vector: Count blocks of BlockLen elements, the start of
// each block Stride elements after the previous one. A stride below the block
// length would overlap and panics.
type Vector struct {
	Count    int
	BlockLen int
	Stride   int
	ElemSize int
}

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

func (v Vector) Bytes() int64 {
	if v.Count <= 0 || v.BlockLen <= 0 {
		return 0
	}
	return int64(v.Count) * int64(v.BlockLen) * int64(v.ElemSize)
}

// Indexed is MPI_Type_indexed: block i has BlockLens[i] elements starting at
// element displacement Displs[i], in any order; overlapping blocks and
// mismatched slices panic.
type Indexed struct {
	BlockLens []int
	Displs    []int
	ElemSize  int
}

func (x Indexed) Flatten() []Run {
	if len(x.BlockLens) != len(x.Displs) {
		panic(fmt.Sprintf("mpi: Indexed has %d block lengths and %d displacements",
			len(x.BlockLens), len(x.Displs)))
	}
	runs := make([]Run, 0, len(x.BlockLens))
	for i, bl := range x.BlockLens {
		if bl > 0 {
			runs = append(runs, Run{Off: int64(x.Displs[i]) * int64(x.ElemSize), Len: int64(bl) * int64(x.ElemSize)})
		}
	}
	slices.SortFunc(runs, func(a, b Run) int { return cmp.Compare(a.Off, b.Off) })
	return CoalesceRuns(runs)
}

func (x Indexed) Bytes() int64 {
	var n int64
	for _, bl := range x.BlockLens {
		if bl > 0 {
			n += int64(bl) * int64(x.ElemSize)
		}
	}
	return n
}

// Shifted places a datatype at a byte offset.
type Shifted struct {
	Base datatype
	Off  int64
}

func (s Shifted) Flatten() []Run {
	var out []Run
	for _, r := range s.Base.Flatten() {
		out = append(out, Run{Off: r.Off + s.Off, Len: r.Len})
	}
	return out
}

func (s Shifted) Bytes() int64 { return s.Base.Bytes() }

// Concat lays datatypes out at absolute byte offsets, a struct-like view
// (MPI_Type_create_struct with byte displacements).
func Concat(parts []datatype, offsets []int64) datatype {
	if len(parts) != len(offsets) {
		panic("mpi: Concat needs one offset per part")
	}
	return concatType{parts: parts, offsets: offsets}
}

type concatType struct {
	parts   []datatype
	offsets []int64
}

func (c concatType) Flatten() []Run {
	var runs []Run
	for i, p := range c.parts {
		for _, r := range p.Flatten() {
			runs = append(runs, Run{Off: r.Off + c.offsets[i], Len: r.Len})
		}
	}
	slices.SortFunc(runs, func(a, b Run) int { return cmp.Compare(a.Off, b.Off) })
	return CoalesceRuns(runs)
}

func (c concatType) Bytes() int64 {
	var n int64
	for _, p := range c.parts {
		n += p.Bytes()
	}
	return n
}

// CoalesceRuns merges adjacent runs of an offset-sorted, non-overlapping run
// list into the minimal equivalent list; unsorted or overlapping input panics.
func CoalesceRuns(runs []Run) []Run {
	if len(runs) == 0 {
		return nil
	}
	out := make([]Run, 0, len(runs))
	cur := runs[0]
	for _, r := range runs[1:] {
		if r.Off < cur.Off+cur.Len {
			panic(fmt.Sprintf("mpi: CoalesceRuns input unsorted or overlapping at off %d", r.Off))
		}
		if r.Off == cur.Off+cur.Len {
			cur.Len += r.Len
			continue
		}
		if cur.Len > 0 {
			out = append(out, cur)
		}
		cur = r
	}
	if cur.Len > 0 {
		out = append(out, cur)
	}
	return out
}

func runsEqual(a, b []Run) bool { return slices.Equal(a, b) }

func TestContiguous(t *testing.T) {
	c := Contiguous{Count: 10, ElemSize: 4}
	if !runsEqual(c.Flatten(), []Run{{0, 40}}) {
		t.Fatalf("runs = %v", c.Flatten())
	}
	if c.Bytes() != 40 {
		t.Fatalf("bytes = %d", c.Bytes())
	}
	if (Contiguous{}).Flatten() != nil {
		t.Fatal("empty contiguous should have no runs")
	}
}

func TestVector(t *testing.T) {
	// 3 blocks of 2 elements, stride 5, 4-byte elements:
	// [0,8) [20,28) [40,48)
	v := Vector{Count: 3, BlockLen: 2, Stride: 5, ElemSize: 4}
	want := []Run{{0, 8}, {20, 8}, {40, 8}}
	if !runsEqual(v.Flatten(), want) {
		t.Fatalf("runs = %v, want %v", v.Flatten(), want)
	}
	if v.Bytes() != 24 {
		t.Fatalf("bytes = %d", v.Bytes())
	}
	// Stride == BlockLen collapses to one contiguous run.
	dense := Vector{Count: 4, BlockLen: 3, Stride: 3, ElemSize: 2}
	if !runsEqual(dense.Flatten(), []Run{{0, 24}}) {
		t.Fatalf("dense runs = %v", dense.Flatten())
	}
}

func TestVectorOverlapPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for stride < blocklen")
		}
	}()
	Vector{Count: 2, BlockLen: 4, Stride: 2, ElemSize: 1}.Flatten()
}

func TestIndexed(t *testing.T) {
	// Unordered displacements must come back sorted and coalesced:
	// displ 0 len 3 -> [0,6) and displ 3 len 1 -> [6,8) are adjacent and
	// merge; displ 10 len 2 -> [20,24).
	x := Indexed{BlockLens: []int{2, 3, 1}, Displs: []int{10, 0, 3}, ElemSize: 2}
	want := []Run{{0, 8}, {20, 4}}
	if got := x.Flatten(); !runsEqual(got, want) {
		t.Fatalf("runs = %v, want %v", got, want)
	}
	if x.Bytes() != 12 {
		t.Fatalf("bytes = %d", x.Bytes())
	}
}

func TestIndexedOverlapPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for overlapping blocks")
		}
	}()
	Indexed{BlockLens: []int{4, 4}, Displs: []int{0, 2}, ElemSize: 1}.Flatten()
}

func TestIndexedMismatchedSlicesPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	Indexed{BlockLens: []int{1}, Displs: []int{0, 1}, ElemSize: 1}.Flatten()
}

func TestShifted(t *testing.T) {
	s := Shifted{Base: Contiguous{Count: 3, ElemSize: 4}, Off: 100}
	if !runsEqual(s.Flatten(), []Run{{100, 12}}) {
		t.Fatalf("runs = %v", s.Flatten())
	}
	if s.Bytes() != 12 {
		t.Fatalf("bytes = %d", s.Bytes())
	}
}

func TestConcatStructLike(t *testing.T) {
	// A struct-like view: an 8-byte header, then a vector field region.
	dt := Concat(
		[]datatype{Contiguous{Count: 8, ElemSize: 1}, Vector{Count: 2, BlockLen: 1, Stride: 2, ElemSize: 4}},
		[]int64{0, 16},
	)
	want := []Run{{0, 8}, {16, 4}, {24, 4}}
	if !runsEqual(dt.Flatten(), want) {
		t.Fatalf("runs = %v, want %v", dt.Flatten(), want)
	}
	if dt.Bytes() != 16 {
		t.Fatalf("bytes = %d", dt.Bytes())
	}
}

func TestConcatMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	Concat([]datatype{Contiguous{1, 1}}, nil)
}

// Property: for any valid vector, the flattened runs are sorted, disjoint
// and sum to Bytes().
func TestVectorProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		v := Vector{
			Count:    rng.Intn(20) + 1,
			BlockLen: rng.Intn(8) + 1,
			ElemSize: rng.Intn(8) + 1,
		}
		v.Stride = v.BlockLen + rng.Intn(8)
		runs := v.Flatten()
		var total int64
		prevEnd := int64(-1)
		for _, r := range runs {
			if r.Off <= prevEnd {
				return false
			}
			prevEnd = r.Off + r.Len - 1
			total += r.Len
		}
		return total == v.Bytes()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// Property: a Subarray satisfies the reference model's interface and agrees
// with itself through it.
func TestSubarrayIsADatatype(t *testing.T) {
	s := Subarray{Sizes: []int{4, 4}, Subsizes: []int{2, 2}, Starts: []int{1, 1}, ElemSize: 2}
	var dt datatype = s
	if !runsEqual(dt.Flatten(), s.Flatten()) || dt.Bytes() != s.Bytes() {
		t.Fatal("Subarray datatype view disagrees with itself")
	}
}

// TestSubarrayFlattenMatchesDerivedReference: a 3-D block is, plane by plane,
// a vector of rows — Concat over z of Shifted{Vector{sub y rows of sub x
// elements, stride size x}} — so Subarray's analytic run list (the fully
// spanned suffix collapsed without visiting it) must equal the reference
// model's, element for element.
func TestSubarrayFlattenMatchesDerivedReference(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		var s Subarray
		s.ElemSize = rng.Intn(8) + 1
		for d := 0; d < 3; d++ {
			size := rng.Intn(6) + 1
			sub := rng.Intn(size + 1)
			if rng.Intn(3) == 0 {
				sub = size // fully spanned dims are the coalescing case
			}
			s.Sizes = append(s.Sizes, size)
			s.Subsizes = append(s.Subsizes, sub)
			s.Starts = append(s.Starts, rng.Intn(size-sub+1))
		}
		var parts []datatype
		var offs []int64
		for z := 0; z < s.Subsizes[0]; z++ {
			row := int64(((s.Starts[0]+z)*s.Sizes[1]+s.Starts[1])*s.Sizes[2] + s.Starts[2])
			parts = append(parts, Vector{Count: s.Subsizes[1], BlockLen: s.Subsizes[2], Stride: s.Sizes[2], ElemSize: s.ElemSize})
			offs = append(offs, row*int64(s.ElemSize))
		}
		ref := Concat(parts, offs)
		return runsEqual(s.Flatten(), ref.Flatten()) && s.Bytes() == ref.Bytes()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Fatal(err)
	}
}
