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
// holds the sender's slice — while Send/Isend, Bcast, Allgatherv, Alltoallv
// and the reductions clone at post time and hand the buffer straight back
// (MPI's blocking-send contract, which probes and tests rely on; their
// payloads are small).
package mpi

import "fmt"

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
	count := 1
	for d := 0; d < s.contigFrom()-1; d++ {
		count *= s.Subsizes[d]
	}
	return s.AppendRuns(make([]Run, 0, count), 0)
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
