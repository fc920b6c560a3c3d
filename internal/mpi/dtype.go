// Package mpi provides a simulated Message Passing Interface: ranks run as
// virtual-time processes on a machine model, exchange byte-slice messages
// with tag matching, and use the standard collective operations. The
// subset implemented is the one ENZO's I/O paths and ROMIO's two-phase
// collective I/O need.
//
// Buffer ownership. A payload buffer is write-once: after it is sent,
// gathered, scattered or handed to pfs nobody mutates it, and a receiver that
// wants to change it clones it. The copies the modelled machine makes are
// charged in virtual time (CopyCost, the transfer itself); the host makes one
// only where a caller may legitimately reuse its buffer. So Gatherv, Scatterv,
// AlltoallvScratch and ExchangeScratch deliver by reference — the receiver
// holds the sender's slice — and GathervView and ScattervView deliver a View,
// a subarray of a buffer the sender owns or of pieces of a file it was lent
// (pfs.Piece, the store's own form, never converted), likewise by reference:
// the block is not packed before it travels, and the receiver copies it once,
// run by run, to where it goes (View.Pack, View.UnpackTo). Send/Isend, Bcast, Allgatherv,
// Alltoallv and the reductions clone at post time and hand the buffer
// straight back (MPI's blocking-send contract, which probes and tests rely
// on; their payloads are small).
package mpi

import (
	"fmt"
	"slices"

	"repro/internal/pfs"
)

// Run is a contiguous byte extent at offset Off of length Len. Lists of
// runs are the flattened form of MPI derived datatypes: both file views
// (subarrays of a stored multidimensional dataset) and irregular accesses
// reduce to them, and they are the only datatype form the I/O paths use.
type Run struct {
	Off int64
	Len int64
}

// TotalLen sums the lengths of a run list.
func TotalLen(runs []Run) int64 {
	var n int64
	for _, r := range runs {
		n += r.Len
	}
	return n
}

// Subarray describes an axis-aligned block (subsizes at starts) of a
// multidimensional array (sizes), the flattened equivalent of
// MPI_Type_create_subarray with C (row-major) order: the LAST dimension is
// contiguous in memory and in the file. ENZO stores its 3-D baryon fields
// so that x varies fastest; we therefore order dims (z, y, x).
type Subarray struct {
	Sizes    []int // full array extent per dimension
	Subsizes []int // block extent per dimension
	Starts   []int // block origin per dimension
	ElemSize int   // bytes per element
}

// Validate checks dimension consistency and bounds.
func (s Subarray) Validate() error {
	if len(s.Sizes) == 0 || len(s.Sizes) != len(s.Subsizes) || len(s.Sizes) != len(s.Starts) {
		return fmt.Errorf("mpi: subarray dimension mismatch sizes=%d subsizes=%d starts=%d",
			len(s.Sizes), len(s.Subsizes), len(s.Starts))
	}
	if s.ElemSize <= 0 {
		return fmt.Errorf("mpi: subarray elem size %d", s.ElemSize)
	}
	for d := range s.Sizes {
		if s.Sizes[d] <= 0 || s.Subsizes[d] < 0 {
			return fmt.Errorf("mpi: subarray dim %d has sizes=%d subsizes=%d", d, s.Sizes[d], s.Subsizes[d])
		}
		if s.Starts[d] < 0 || s.Starts[d]+s.Subsizes[d] > s.Sizes[d] {
			return fmt.Errorf("mpi: subarray dim %d out of bounds: start=%d sub=%d size=%d",
				d, s.Starts[d], s.Subsizes[d], s.Sizes[d])
		}
	}
	return nil
}

// NumElems returns the number of elements in the block.
func (s Subarray) NumElems() int64 {
	n := int64(1)
	for _, v := range s.Subsizes {
		n *= int64(v)
	}
	return n
}

// Bytes returns the byte size of the block.
func (s Subarray) Bytes() int64 { return s.NumElems() * int64(s.ElemSize) }

// arrayBytes returns the byte size of the whole array the block is cut from.
func (s Subarray) arrayBytes() int64 {
	n := int64(s.ElemSize)
	for _, d := range s.Sizes {
		n *= int64(d)
	}
	return n
}

// contigFrom returns the first dimension of the block's fully-spanned
// suffix: every dim d >= m has Subsizes[d] == Sizes[d]. Consecutive
// indices of dim m-1 are therefore adjacent in memory, so one coalesced
// run covers dims [m-1, nd-1] and the run count is the product of the
// subsizes before that.
func (s Subarray) contigFrom() int {
	m := len(s.Sizes)
	for m > 0 && s.Subsizes[m-1] == s.Sizes[m-1] {
		m--
	}
	return m
}

// Flatten converts the subarray into a sorted, coalesced run list of byte
// extents relative to the start of the full array. It panics on an invalid
// subarray (programming error, not data error).
func (s Subarray) Flatten() []Run {
	if err := s.Validate(); err != nil {
		panic(err)
	}
	if s.NumElems() == 0 {
		return nil
	}
	return s.AppendRuns(make([]Run, 0, s.NumRuns()), 0)
}

// NumRuns returns the length of the subarray's run list (Flatten) without
// building it.
func (s Subarray) NumRuns() int {
	if s.NumElems() == 0 {
		return 0
	}
	count := 1
	for d := 0; d < s.contigFrom()-1; d++ {
		count *= s.Subsizes[d]
	}
	return count
}

// AppendRuns appends the subarray's run list, every offset shifted by base
// (the array's position in a file), to dst and returns the extended slice:
// Flatten into a buffer the caller owns, so a view rebuilt per array — the
// same block of eight same-shaped fields, say — costs no allocation.
func (s Subarray) AppendRuns(dst []Run, base int64) []Run {
	s.visitRuns(func(r Run) { dst = append(dst, Run{Off: r.Off + base, Len: r.Len}) })
	return dst
}

// visitRuns calls fn for each coalesced run of the subarray in ascending
// offset order, without materializing the run list — the copy paths below
// use it directly so a gather/scatter allocates nothing. Runs are emitted
// whole (the fully-spanned suffix of dims collapses analytically), so the
// cost is one callback per coalesced run, not per row. It panics on an
// invalid subarray (programming error, not data error).
func (s Subarray) visitRuns(fn func(Run)) {
	if err := s.Validate(); err != nil {
		panic(err)
	}
	if s.NumElems() == 0 {
		return
	}
	nd := len(s.Sizes)
	// Byte strides per dimension in the full array. Stack arrays cover
	// every dimensionality this codebase uses (this is the per-access hot
	// path of both I/O backends).
	var stridesArr [8]int64
	var idxArr [8]int
	strides := stridesArr[:nd]
	if nd > len(stridesArr) {
		strides = make([]int64, nd)
	}
	strides[nd-1] = int64(s.ElemSize)
	for d := nd - 2; d >= 0; d-- {
		strides[d] = strides[d+1] * int64(s.Sizes[d+1])
	}
	base := int64(0)
	for d := 0; d < nd; d++ {
		base += int64(s.Starts[d]) * strides[d]
	}
	// One run spans dims [m-1, nd-1] (all of them when m <= 1).
	m := s.contigFrom()
	runLen := int64(s.ElemSize)
	for d := m - 1; d < nd; d++ {
		if d < 0 {
			continue
		}
		runLen *= int64(s.Subsizes[d])
	}
	if m <= 1 {
		fn(Run{Off: base, Len: runLen})
		return
	}
	// Iterate the dims before the contiguous suffix in order; runs come
	// out offset-sorted and non-adjacent by construction.
	idx := idxArr[:m-1]
	if m-1 > len(idxArr) {
		idx = make([]int, m-1)
	}
	for {
		off := base
		for d := 0; d < m-1; d++ {
			off += int64(idx[d]) * strides[d]
		}
		fn(Run{Off: off, Len: runLen})
		// increment multi-index
		d := m - 2
		for d >= 0 {
			idx[d]++
			if idx[d] < s.Subsizes[d] {
				break
			}
			idx[d] = 0
			d--
		}
		if d < 0 {
			break
		}
	}
}

// GatherSub copies the subarray's elements out of the full array `src`
// (len = product(Sizes)*ElemSize) into a new contiguous buffer.
func (s Subarray) GatherSub(src []byte) []byte {
	dst := make([]byte, s.Bytes())
	var p int64
	s.visitRuns(func(r Run) {
		copy(dst[p:p+r.Len], src[r.Off:r.Off+r.Len])
		p += r.Len
	})
	return dst
}

// ScatterSub copies a contiguous buffer `src` (len = Bytes()) into the
// subarray's position within the full array `dst`.
func (s Subarray) ScatterSub(dst, src []byte) {
	if int64(len(src)) != s.Bytes() {
		panic(fmt.Sprintf("mpi: ScatterSub src len %d, want %d", len(src), s.Bytes()))
	}
	var p int64
	s.visitRuns(func(r Run) {
		copy(dst[r.Off:r.Off+r.Len], src[p:p+r.Len])
		p += r.Len
	})
}

// View is a read-only payload of the view collectives (ScattervView,
// GathervView) and of the two-phase exchange (ExchangeScratch): the elements
// *Sub selects from an array the sender does not pack first — MPI's subarray
// datatype on the sending side. Like a committed MPI datatype, Sub is a
// handle that many views share and nobody changes. The array's bytes lie in
// one of two places:
//
//   - Base, a buffer the sender owns; a nil Sub selects all of it (Packed): a
//     packed block is a view of itself.
//   - Parts, the lent form: read-only pieces of a larger address space (a
//     file's bytes, lent by pfs in the form the store keeps them), ascending
//     and disjoint, with Base nil. With Sub, a piece's Off is its place in
//     the array Sub selects from, and the pieces cover at least the selected
//     elements. Without, the receiver knows which of their bytes it takes,
//     and Len says how many.
//
// Wherever a transfer is priced a view counts as its packed size, Bytes, and
// it falls under the package's write-once rule: nobody writes Base or a piece
// while a view of it is held. A receiver whose destination may already be
// the memory the view refers to asks InPlace first: when every element is
// already there, it keeps that array instead of unpacking into a new one.
type View struct {
	Base  []byte
	Sub   *Subarray
	Parts []pfs.Piece
	Len   int64 // a lent view without Sub: its packed size
}

// Packed is the view of all of b.
func Packed(b []byte) View { return View{Base: b} }

func (v View) packed() bool { return v.Sub == nil && v.Parts == nil }

// Bytes returns the view's size packed.
func (v View) Bytes() int64 {
	switch {
	case v.Sub != nil:
		return v.Sub.Bytes()
	case v.Parts != nil:
		return v.Len
	}
	return int64(len(v.Base))
}

// check panics unless Sub is a valid subarray of an array that fills Base,
// or of one whose bytes lie in Parts (programming error, not data error).
func (v View) check() {
	if v.Sub == nil {
		return
	}
	if err := v.Sub.Validate(); err != nil {
		panic(err)
	}
	if v.Parts != nil {
		return
	}
	if n := v.Sub.arrayBytes(); n != int64(len(v.Base)) {
		panic(fmt.Sprintf("mpi: view of a %d-byte array over a %d-byte base", n, len(v.Base)))
	}
}

// Pack returns the view's elements back to back: Base itself for a packed
// view, else a new buffer. A lent view without Sub has no elements of its
// own to pack and panics.
func (v View) Pack() []byte {
	switch {
	case v.packed():
		return v.Base
	case v.Parts == nil:
		return v.Sub.GatherSub(v.Base)
	case v.Sub == nil:
		panic("mpi: Pack of a lent view without a selection")
	}
	dst := make([]byte, v.Sub.Bytes())
	var p int64
	i := 0
	v.Sub.visitRuns(func(r Run) {
		i = pfs.CopyPieces(dst[p:p+r.Len], v.Parts, i, r.Off)
		p += r.Len
	})
	return dst
}

// UnpackTo copies the view's elements into at's place in dst, one copy per
// run. A packed view lands in any at of its length; a subarray view only
// where it was cut from — at must select the same block of an array of the
// same shape — so its runs are copied offset for offset, out of Base or out
// of the pieces that hold them.
func (v View) UnpackTo(dst []byte, at Subarray) {
	if v.packed() {
		at.ScatterSub(dst, v.Base)
		return
	}
	if !v.cutAt(at) {
		panic(fmt.Sprintf("mpi: view of %+v unpacked to %+v", v.Sub, at))
	}
	if v.Parts == nil {
		at.visitRuns(func(r Run) { copy(dst[r.Off:r.Off+r.Len], v.Base[r.Off:r.Off+r.Len]) })
		return
	}
	i := 0
	at.visitRuns(func(r Run) { i = pfs.CopyPieces(dst[r.Off:r.Off+r.Len], v.Parts, i, r.Off) })
}

// cutAt reports whether a subarray view selects at's block: the one place
// UnpackTo lands it.
func (v View) cutAt(at Subarray) bool {
	return v.Sub != nil && slices.Equal(v.Sub.Sizes, at.Sizes) && slices.Equal(v.Sub.Subsizes, at.Subsizes) &&
		slices.Equal(v.Sub.Starts, at.Starts) && v.Sub.ElemSize == at.ElemSize
}

// InPlace reports whether v.UnpackTo(dst, at) would copy every byte onto
// itself: the view's elements are already dst's own memory at their places,
// so dst needs no unpack. It tests addresses, never bytes — Base is dst's
// backing, or each stretch of a run of at that a piece covers starts at
// dst's own byte there (one test per run and piece it crosses) — so a copy
// that holds the same bytes is not in place. A packed view, an empty dst, a
// dst that is not at's array and a gap in the pieces are false.
func (v View) InPlace(dst []byte, at Subarray) bool {
	if v.packed() || len(dst) == 0 || !v.cutAt(at) || int64(len(dst)) != at.arrayBytes() {
		return false
	}
	if v.Parts == nil {
		return len(v.Base) == len(dst) && &v.Base[0] == &dst[0]
	}
	in, i := true, 0
	at.visitRuns(func(r Run) {
		for off, end := r.Off, r.Off+r.Len; in && off < end; off = min(end, v.Parts[i].End()) {
			for i < len(v.Parts) && off >= v.Parts[i].End() {
				i++
			}
			in = i < len(v.Parts) && off >= v.Parts[i].Off && &v.Parts[i].Bytes[off-v.Parts[i].Off] == &dst[off]
			if !in {
				return
			}
		}
	})
	return in
}

// BlockDecompose3D splits a 3-D domain of extent dims (ordered z,y,x) into
// a (Block,Block,Block) grid of pz*py*px parts and returns rank r's
// subarray of an array with that extent and element size. Remainder cells
// go to the lower-indexed parts, matching ENZO's partitioning. The rank is
// decomposed with x fastest: r = (iz*py + iy)*px + ix.
func BlockDecompose3D(dims [3]int, pz, py, px, r, elemSize int) Subarray {
	if r < 0 || r >= pz*py*px {
		panic(fmt.Sprintf("mpi: BlockDecompose3D rank %d of %d", r, pz*py*px))
	}
	ix := r % px
	iy := (r / px) % py
	iz := r / (px * py)
	counts := [3]int{pz, py, px}
	index := [3]int{iz, iy, ix}
	var starts, subs [3]int
	for d := 0; d < 3; d++ {
		n, p, i := dims[d], counts[d], index[d]
		base := n / p
		rem := n % p
		if i < rem {
			subs[d] = base + 1
			starts[d] = i * (base + 1)
		} else {
			subs[d] = base
			starts[d] = rem*(base+1) + (i-rem)*base
		}
	}
	return Subarray{
		Sizes:    []int{dims[0], dims[1], dims[2]},
		Subsizes: []int{subs[0], subs[1], subs[2]},
		Starts:   []int{starts[0], starts[1], starts[2]},
		ElemSize: elemSize,
	}
}

// ProcGrid3D factors nprocs into pz*py*px as close to cubic as possible,
// preferring larger factors on the x axis (the contiguous one) so that
// per-process file runs stay as long as possible — the decomposition ENZO
// uses for its top grid.
func ProcGrid3D(nprocs int) (pz, py, px int) {
	if nprocs <= 0 {
		panic("mpi: ProcGrid3D needs positive nprocs")
	}
	best := [3]int{1, 1, nprocs}
	bestScore := -1.0
	for a := 1; a*a*a <= nprocs; a++ {
		if nprocs%a != 0 {
			continue
		}
		rest := nprocs / a
		for b := a; b*b <= rest; b++ {
			if rest%b != 0 {
				continue
			}
			c := rest / b
			// a <= b <= c; assign smallest to z, largest to x.
			score := float64(a*b) * float64(b*c) // prefer balanced
			if score > bestScore {
				bestScore = score
				best = [3]int{a, b, c}
			}
		}
	}
	return best[0], best[1], best[2]
}
