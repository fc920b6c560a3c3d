// Package psort implements a parallel sample sort over the simulated MPI,
// used by the optimized ENZO particle dump: before the block-wise parallel
// write, "all processors perform a parallel sort according to the particle
// ID" (Section 3.2). Rows are fixed-size byte records with an int64 key.
package psort

import (
	"cmp"
	"encoding/binary"
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

// localSort sorts rows in place by key (stable, so equal keys keep their
// relative order and the sort is deterministic).
func localSort(r *mpi.Rank, rows [][]byte, key Key) {
	n := len(rows)
	if n > 1 {
		// charge the comparison work to the rank's clock
		r.Compute(int64(n) * int64(bits.Len(uint(n))))
	}
	slices.SortStableFunc(rows, func(a, b []byte) int { return cmp.Compare(key(a), key(b)) })
}

// SampleSort globally sorts fixed-size rows distributed across the ranks
// of r's communicator. On return, each rank holds a sorted partition and
// partitions are globally ordered by rank: every key on rank i is <= every
// key on rank i+1. rowSize must be the same on all ranks; row counts may
// differ (including zero).
func SampleSort(r *mpi.Rank, rows [][]byte, rowSize int, key Key) [][]byte {
	size := r.Size()
	localSort(r, rows, key)
	if size == 1 {
		return rows
	}

	// Sample P keys per rank at even strides (oversampling factor 1).
	samples := make([]byte, 0, 8*size)
	for s := 0; s < size; s++ {
		var k int64
		if len(rows) > 0 {
			k = key(rows[len(rows)*s/size])
		} else {
			k = int64(^uint64(0) >> 1) // empty rank contributes +inf samples
		}
		var b [8]byte
		binary.LittleEndian.PutUint64(b[:], uint64(k))
		samples = append(samples, b[:]...)
	}
	gathered := r.Allgatherv(samples)
	var all []int64
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
	// of them, and the parts are back-to-back pieces of one buffer.
	backing := make([]byte, 0, len(rows)*rowSize)
	parts := make([][]byte, size)
	lo := 0
	for b := range parts {
		hi := len(rows)
		if b < len(splitters) {
			hi = sort.Search(len(rows), func(i int) bool { return key(rows[i]) > splitters[b] })
		}
		start := len(backing)
		for _, row := range rows[lo:hi] {
			backing = append(backing, row...)
		}
		parts[b] = backing[start:len(backing):len(backing)]
		lo = hi
	}
	recvd := r.AlltoallvScratch(parts) // freshly bucketed parts, garbage after this call

	// Unpack and merge (received pieces are each sorted; a final sort is
	// simplest and deterministic).
	total := 0
	for _, chunk := range recvd {
		total += len(chunk) / rowSize
	}
	out := make([][]byte, 0, total)
	for _, chunk := range recvd {
		for p := 0; p+rowSize <= len(chunk); p += rowSize {
			out = append(out, chunk[p:p+rowSize])
		}
	}
	localSort(r, out, key)
	return out
}

// IsGloballySorted verifies the SampleSort postcondition: locally sorted
// and the local max does not exceed the next non-empty rank's min. It is a
// collective call returning the same verdict on every rank.
func IsGloballySorted(r *mpi.Rank, rows [][]byte, key Key) bool {
	localOK := int64(1)
	for i := 1; i < len(rows); i++ {
		if key(rows[i-1]) > key(rows[i]) {
			localOK = 0
		}
	}
	var lo, hi int64
	if len(rows) > 0 {
		lo, hi = key(rows[0]), key(rows[len(rows)-1])
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
