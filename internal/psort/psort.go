// Package psort implements a parallel sample sort over the simulated MPI,
// used by the optimized ENZO particle dump: before the block-wise parallel
// write, "all processors perform a parallel sort according to the particle
// ID" (Section 3.2). Rows are fixed-size byte records with an int64 key,
// packed back to back in one buffer.
package psort

import (
	"encoding/binary"
	"fmt"
	"math"
	"math/bits"
	"slices"
	"sort"

	"repro/internal/mpi"
)

// Key extracts a row's sort key.
type Key func(row []byte) int64

// IDKey reads a little-endian int64 key at byte offset off.
func IDKey(off int) Key {
	return func(row []byte) int64 {
		return int64(binary.LittleEndian.Uint64(row[off:]))
	}
}

// LocalSort returns the rows of chunks, taken in order (each chunk a whole
// number of rows; a trailing partial row is dropped), sorted by key into one
// new buffer; rows with equal keys keep their order. It charges the
// comparison work to r's clock.
//
// The sort is a least-significant-digit radix sort of the rows' indices by
// their extracted keys, a byte per pass: each pass is stable and the
// indices start in input order, so the result is the stable order. Only the
// bytes that differ between keys get a pass.
func LocalSort(r *mpi.Rank, chunks [][]byte, rowSize int, key Key) []byte {
	n := 0
	for _, c := range chunks {
		n += len(c) / rowSize
	}
	if n > math.MaxInt32 {
		panic(fmt.Sprintf("psort: %d rows overflow the sort's int32 indices", n))
	}
	if n > 1 {
		r.Compute(int64(n) * int64(bits.Len(uint(n))))
	}
	// keys[g] is row g's key with the sign bit flipped, so that unsigned
	// order is int64 order; varied has the bits in which some key differs
	// from the first.
	keys := make([]uint64, 0, n)
	var varied uint64
	for _, c := range chunks {
		for p := 0; p+rowSize <= len(c); p += rowSize {
			k := uint64(key(c[p:p+rowSize])) ^ 1<<63
			keys = append(keys, k)
			varied |= k ^ keys[0]
		}
	}
	digits := make([]uint, 0, 8) // the shifts of the key bytes that vary
	for shift := uint(0); shift < 64; shift += 8 {
		if varied>>shift&0xff != 0 {
			digits = append(digits, shift)
		}
	}
	var counts [8][256]int32
	for _, k := range keys {
		for d, shift := range digits {
			counts[d][byte(k>>shift)]++
		}
	}
	idx := make([]int32, 2*n)
	order, spare := idx[:n:n], idx[n:]
	for g := range order {
		order[g] = int32(g)
	}
	for d, shift := range digits {
		var next [256]int32
		sum := int32(0)
		for v, c := range counts[d] {
			next[v], sum = sum, sum+c
		}
		for _, g := range order {
			v := byte(keys[g] >> shift)
			spare[next[v]] = g
			next[v]++
		}
		order, spare = spare, order
	}
	// spare becomes each input row's place in the output, so the rows are
	// read in input order and written once each.
	for j, g := range order {
		spare[g] = int32(j)
	}
	out := make([]byte, n*rowSize)
	g := 0
	for _, c := range chunks {
		for p := 0; p+rowSize <= len(c); p, g = p+rowSize, g+1 {
			j := int(spare[g])
			copy(out[j*rowSize:(j+1)*rowSize], c[p:p+rowSize])
		}
	}
	return out
}

// SampleSort globally sorts fixed-size rows distributed across the ranks
// of r's communicator. On return, each rank holds a sorted partition and
// partitions are globally ordered by rank: every key on rank i is <= every
// key on rank i+1. rowSize must be the same on all ranks; row counts may
// differ (including zero). rows is only read.
func SampleSort(r *mpi.Rank, rows []byte, rowSize int, key Key) []byte {
	size := r.Size()
	sorted := LocalSort(r, [][]byte{rows}, rowSize, key)
	if size == 1 {
		return sorted
	}
	n := len(sorted) / rowSize
	keyAt := func(i int) int64 { return key(sorted[i*rowSize : (i+1)*rowSize]) }

	// Sample P keys per rank at even strides (oversampling factor 1).
	samples := make([]byte, 0, 8*size)
	for s := 0; s < size; s++ {
		k := int64(^uint64(0) >> 1) // empty rank contributes +inf samples
		if n > 0 {
			k = keyAt(n * s / size)
		}
		samples = binary.LittleEndian.AppendUint64(samples, uint64(k))
	}
	gathered := r.Allgatherv(samples)
	all := make([]int64, 0, size*size)
	for _, g := range gathered {
		for p := 0; p+8 <= len(g); p += 8 {
			all = append(all, int64(binary.LittleEndian.Uint64(g[p:])))
		}
	}
	slices.Sort(all)
	// P-1 splitters at even positions.
	splitters := make([]int64, size-1)
	for i := range splitters {
		splitters[i] = all[(i+1)*len(all)/size]
	}

	// Bucket rows by splitter: bucket i gets keys in (splitters[i-1],
	// splitters[i]]. The rows are sorted, so a bucket is a contiguous range
	// of them.
	parts := make([][]byte, size)
	lo := 0
	for b := range parts {
		hi := n
		if b < len(splitters) {
			hi = sort.Search(n, func(i int) bool { return keyAt(i) > splitters[b] })
		}
		parts[b] = sorted[lo*rowSize : hi*rowSize : hi*rowSize]
		lo = hi
	}
	// sorted is garbage after this call; the received pieces are each
	// sorted, and one more stable sort merges them deterministically.
	return LocalSort(r, r.AlltoallvScratch(parts), rowSize, key)
}

// IsGloballySorted verifies the SampleSort postcondition: locally sorted
// and the local max does not exceed the next non-empty rank's min. It is a
// collective call returning the same verdict on every rank.
func IsGloballySorted(r *mpi.Rank, rows []byte, rowSize int, key Key) bool {
	n := len(rows) / rowSize
	keyAt := func(i int) int64 { return key(rows[i*rowSize : (i+1)*rowSize]) }
	localOK := int64(1)
	for i := 1; i < n; i++ {
		if keyAt(i-1) > keyAt(i) {
			localOK = 0
		}
	}
	var lo, hi int64
	if n > 0 {
		lo, hi = keyAt(0), keyAt(n-1)
	} else {
		lo, hi = int64(^uint64(0)>>1), int64(-1)<<62
	}
	allLo := r.AllgatherInt64(lo)
	allHi := r.AllgatherInt64(hi)
	boundaryOK := int64(1)
	prevHi := int64(-1) << 62
	for i := 0; i < r.Size(); i++ {
		if allHi[i] < allLo[i] {
			continue // empty rank
		}
		if allLo[i] < prevHi {
			boundaryOK = 0
		}
		prevHi = allHi[i]
	}
	return r.AllreduceInt64(localOK, mpi.OpMin) == 1 && boundaryOK == 1
}
