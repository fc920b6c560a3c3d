package mpi

import (
	"encoding/binary"
	"fmt"
	"math"
	"slices"

	"repro/internal/obs"
)

// collTag returns the reserved tag for this rank's next collective. Ranks
// call collectives in the same program order (SPMD), so sequence numbers —
// and therefore tags — agree across ranks without negotiation.
func (r *Rank) collTag() int {
	r.collSeq++
	return MaxUserTag + 1 + (r.collSeq & 0xFFFF)
}

// Barrier blocks until every rank has entered it, using a dissemination
// barrier: ceil(log2 P) rounds of zero-byte messages.
func (r *Rank) Barrier() {
	defer obs.Begin(r.proc, obs.LayerMPI, "barrier").End()
	tag := r.collTag()
	size := r.Size()
	if size == 1 {
		r.proc.Yield()
		return
	}
	for step := 1; step < size; step <<= 1 {
		dst := (r.rank + step) % size
		src := (r.rank - step + size) % size
		r.sendScratch(dst, tag, nil)
		r.Recv(src, tag)
	}
}

// Bcast distributes data from root to every rank using a binomial tree.
// Non-root ranks pass nil and receive root's slice itself as the return
// value; the root gets it back too.
func (r *Rank) Bcast(root int, data []byte) []byte {
	sp := obs.Begin(r.proc, obs.LayerMPI, "bcast").Bytes(int64(len(data)))
	defer sp.End()
	tag := r.collTag()
	size := r.Size()
	if size == 1 {
		r.proc.Yield()
		return data
	}
	relrank := (r.rank - root + size) % size
	mask := 1
	for mask < size {
		if relrank&mask != 0 {
			src := r.rank - mask
			if src < 0 {
				src += size
			}
			data, _, _ = r.Recv(src, tag)
			break
		}
		mask <<= 1
	}
	mask >>= 1
	for mask > 0 {
		if relrank+mask < size {
			dst := r.rank + mask
			if dst >= size {
				dst -= size
			}
			r.sendScratch(dst, tag, data)
		}
		mask >>= 1
	}
	return data
}

// Gatherv collects each rank's view at root: rank src's v arrives as
// out[src], Base, Sub and Parts as sent, for root to read (a packed view's
// Base) or unpack where it belongs (View.UnpackTo); elsewhere the result is
// nil. A view is charged at its packed size, and the root's own is still
// charged as a local copy. Arrivals funnel through the root's NIC, so the
// incast serialization the original ENZO HDF4 path suffers appears
// naturally.
func (r *Rank) Gatherv(root int, v View) []View {
	defer obs.Begin(r.proc, obs.LayerMPI, "gatherv").Bytes(v.Bytes()).End()
	v.check()
	tag := r.collTag()
	size := r.Size()
	if r.rank != root {
		r.sendView(root, tag, v)
		return nil
	}
	out := make([]View, size)
	r.CopyCost(v.Bytes())
	out[root] = v
	for src := 0; src < size; src++ {
		if src != root {
			out[src] = r.recvView(src, tag)
		}
	}
	return out
}

// Scatterv distributes parts[i] from root to rank i; every rank returns its
// own part, root included, as sent — to read, pack or unpack itself
// (View.Pack, View.UnpackTo). Non-root ranks pass nil. A part is charged at
// its packed size, and the root's own is still charged as a local copy.
func (r *Rank) Scatterv(root int, parts []View) View {
	var total int64
	for _, p := range parts {
		p.check()
		total += p.Bytes()
	}
	defer obs.Begin(r.proc, obs.LayerMPI, "scatterv").Bytes(total).End()
	tag := r.collTag()
	size := r.Size()
	if r.rank != root {
		return r.recvView(root, tag)
	}
	if len(parts) != size {
		panic(fmt.Sprintf("mpi: Scatterv root has %d parts for %d ranks", len(parts), size))
	}
	for dst := 0; dst < size; dst++ {
		if dst != root {
			r.sendView(dst, tag, parts[dst])
		}
	}
	r.CopyCost(parts[root].Bytes())
	return parts[root]
}

// Allgatherv gathers every rank's buffer on every rank using the ring
// algorithm: P-1 steps, each forwarding the most recently received block to
// the right neighbour. out[src] is rank src's slice itself, the caller's own
// included.
func (r *Rank) Allgatherv(data []byte) [][]byte {
	defer obs.Begin(r.proc, obs.LayerMPI, "allgatherv").Bytes(int64(len(data))).End()
	tag := r.collTag()
	size := r.Size()
	out := make([][]byte, size)
	out[r.rank] = data
	if size == 1 {
		r.proc.Yield()
		return out
	}
	right := (r.rank + 1) % size
	left := (r.rank - 1 + size) % size
	cur := data
	for step := 0; step < size-1; step++ {
		r.sendScratch(right, tag, cur)
		msg, _, _ := r.Recv(left, tag)
		srcRank := (r.rank - 1 - step + 2*size) % size
		out[srcRank] = msg
		cur = msg
	}
	return out
}

// AlltoallvScratch sends parts[i] to rank i and returns the per-source
// received buffers, each the very slice its sender passed. Every rank first
// learns how much each peer has for it (a log-round count exchange), then
// payloads move point-to-point between the non-empty pairs only — an empty
// part costs no message. The caller must guarantee that no rank mutates or
// recycles its parts buffers until every rank has left the enclosing
// operation — satisfied trivially when the buffers become garbage right
// after the exchange, and by construction for per-collective scratch arenas
// when the enclosing operation ends with a barrier (no rank can re-enter and
// reset its arena before every receiver has finished consuming the
// aliases).
func (r *Rank) AlltoallvScratch(parts [][]byte) [][]byte {
	size := r.Size()
	if len(parts) != size {
		panic(fmt.Sprintf("mpi: AlltoallvScratch got %d parts for %d ranks", len(parts), size))
	}
	var total int64
	counts := make([]int64, size)
	var sendTo, recvFrom []int
	for d, p := range parts {
		total += int64(len(p))
		counts[d] = int64(len(p))
		if len(p) > 0 {
			sendTo = append(sendTo, d)
		}
	}
	defer obs.Begin(r.proc, obs.LayerMPI, "alltoallv").Bytes(total).End()
	for s, n := range r.alltoallInt64(counts) {
		if n > 0 {
			recvFrom = append(recvFrom, s)
		}
	}
	out := make([][]byte, size)
	own := parts[r.rank]
	r.CopyCost(int64(len(own)))
	out[r.rank] = own
	r.exchange(sendTo, recvFrom,
		func(dst, tag int) { r.sendScratch(dst, tag, parts[dst]) },
		func(src, tag int) { out[src], _, _ = r.Recv(src, tag) })
	return out
}

// alltoallInt64 delivers send[d] to rank d and returns, per source rank, the
// value it had for this rank, using Bruck's algorithm: ceil(log2 P) rounds in
// which round k forwards, k ranks ahead, every block whose remaining distance
// has bit k set. Each block travels exactly its distance, staying at the
// index that names that distance, and no rank sends more than P/2 values per
// round.
func (r *Rank) alltoallInt64(send []int64) []int64 {
	tag := r.collTag()
	size := r.Size()
	buf := make([]int64, size) // buf[i] is bound for the rank i ahead of its holder
	for i := range buf {
		buf[i] = send[(r.rank+i)%size]
	}
	for k := 1; k < size; k <<= 1 {
		msg := make([]byte, 0, 8*(size/2))
		for i := k; i < size; i++ {
			if i&k != 0 {
				msg = binary.LittleEndian.AppendUint64(msg, uint64(buf[i]))
			}
		}
		r.sendScratch((r.rank+k)%size, tag, msg) // msg is never touched again
		in, _, _ := r.Recv((r.rank-k+size)%size, tag)
		for i := k; i < size; i++ {
			if i&k != 0 {
				buf[i] = decI64(in)
				in = in[8:]
			}
		}
	}
	recv := make([]int64, size)
	for i, v := range buf {
		recv[(r.rank-i+size)%size] = v // buf[i] started i ranks behind
	}
	return recv
}

// ExchangeScratch is the sparse personalized exchange under two-phase I/O:
// parts[d] goes to every rank d listed in sendTo, and the result holds one
// message for every rank listed in recvFrom. Unlike AlltoallvScratch there
// is no count round — the caller must already know both lists, and they
// must agree across ranks (d is in s's sendTo exactly when s is in d's
// recvFrom), or the exchange deadlocks. Both lists are
// ascending. The caller's own part is always handed back, listed or not.
// Payloads are views and travel by reference, each charged at its packed
// size: AlltoallvScratch's aliasing contract applies, to a view's Base and
// parts alike. The result lands in out, which the caller owns and reuses
// from call to call: one entry per rank, distinct from parts. Only the
// caller's own slot and those of recvFrom are written; the rest hold what
// they held, so a caller reads the slots it listed and clears what it
// filled, at the cost of its partners rather than of np.
func (r *Rank) ExchangeScratch(out, parts []View, sendTo, recvFrom []int) {
	size := r.Size()
	if len(parts) != size || len(out) != size {
		panic(fmt.Sprintf("mpi: ExchangeScratch got %d parts and %d result slots for %d ranks", len(parts), len(out), size))
	}
	var total int64
	for _, d := range sendTo {
		total += parts[d].Bytes()
	}
	defer obs.Begin(r.proc, obs.LayerMPI, "exchange").Bytes(total).End()
	own := parts[r.rank]
	r.CopyCost(own.Bytes())
	out[r.rank] = own
	r.exchange(sendTo, recvFrom,
		func(dst, tag int) { r.sendView(dst, tag, parts[dst]) },
		func(src, tag int) { out[src] = r.recvView(src, tag) })
}

// exchange posts one send per listed destination other than the caller — in
// rotated order starting after the caller, so the ranks do not all hit the
// same destination first — and then receives from each listed source other
// than the caller by name, nearest predecessor first (the order their sends
// were posted in). send and recv move one message under the exchange's tag;
// the caller's own part is the caller's to hand back.
func (r *Rank) exchange(sendTo, recvFrom []int, send, recv func(peer, tag int)) {
	tag := r.collTag()
	after, _ := slices.BinarySearch(sendTo, r.rank+1)
	for i := range sendTo {
		if dst := sendTo[(after+i)%len(sendTo)]; dst != r.rank {
			send(dst, tag)
		}
	}
	before, _ := slices.BinarySearch(recvFrom, r.rank)
	for i := len(recvFrom) - 1; i >= 0; i-- {
		if src := recvFrom[(before+i)%len(recvFrom)]; src != r.rank {
			recv(src, tag)
		}
	}
}

// Op names a reduction operator.
type Op int

// Supported reduction operators.
const (
	OpSum Op = iota
	OpMax
	OpMin
)

func reduceI64(op Op, a, b int64) int64 {
	switch op {
	case OpSum:
		return a + b
	case OpMax:
		if a > b {
			return a
		}
		return b
	case OpMin:
		if a < b {
			return a
		}
		return b
	}
	panic("mpi: unknown op")
}

func reduceF64(op Op, a, b float64) float64 {
	switch op {
	case OpSum:
		return a + b
	case OpMax:
		return math.Max(a, b)
	case OpMin:
		return math.Min(a, b)
	}
	panic("mpi: unknown op")
}

func encI64(v int64) []byte {
	var b [8]byte
	binary.LittleEndian.PutUint64(b[:], uint64(v))
	return b[:]
}

func decI64(b []byte) int64 { return int64(binary.LittleEndian.Uint64(b)) }

func encF64(v float64) []byte { return encI64(int64(math.Float64bits(v))) }

func decF64(b []byte) float64 { return math.Float64frombits(uint64(decI64(b))) }

// reduceBytes runs a binomial-tree reduction of 8-byte payloads to root.
func (r *Rank) reduceBytes(root int, data []byte, combine func(acc, in []byte) []byte) []byte {
	defer obs.Begin(r.proc, obs.LayerMPI, "reduce").Bytes(int64(len(data))).End()
	tag := r.collTag()
	size := r.Size()
	if size == 1 {
		r.proc.Yield()
		return data
	}
	relrank := (r.rank - root + size) % size
	acc := data
	mask := 1
	for mask < size {
		if relrank&mask != 0 {
			dst := (root + (relrank &^ mask)) % size
			r.sendScratch(dst, tag, acc)
			return nil
		}
		srcRel := relrank | mask
		if srcRel < size {
			src := (root + srcRel) % size
			msg, _, _ := r.Recv(src, tag)
			acc = combine(acc, msg)
		}
		mask <<= 1
	}
	return acc
}

// ReduceInt64 reduces v across ranks to root; only root receives the
// result (other ranks get 0).
func (r *Rank) ReduceInt64(root int, v int64, op Op) int64 {
	res := r.reduceBytes(root, encI64(v), func(acc, in []byte) []byte {
		return encI64(reduceI64(op, decI64(acc), decI64(in)))
	})
	if r.rank != root {
		return 0
	}
	return decI64(res)
}

// AllreduceInt64 reduces v across all ranks and broadcasts the result.
func (r *Rank) AllreduceInt64(v int64, op Op) int64 {
	res := r.ReduceInt64(0, v, op)
	return decI64(r.Bcast(0, encI64(res)))
}

// AllreduceFloat64 reduces v across all ranks and broadcasts the result.
func (r *Rank) AllreduceFloat64(v float64, op Op) float64 {
	res := r.reduceBytes(0, encF64(v), func(acc, in []byte) []byte {
		return encF64(reduceF64(op, decF64(acc), decF64(in)))
	})
	var out []byte
	if r.rank == 0 {
		out = r.Bcast(0, res)
	} else {
		out = r.Bcast(0, nil)
	}
	return decF64(out)
}

// AllgatherInt64 gathers one int64 per rank on every rank.
func (r *Rank) AllgatherInt64(v int64) []int64 {
	return r.AllgatherInt64s(nil, []int64{v})
}

// AllgatherInt64s gathers a fixed-size block of int64s from every rank on
// every rank and appends them to dst, which it returns: the appended values
// hold rank i's block at [i*len(vals), (i+1)*len(vals)). A caller that
// passes a reused slice's [:0] decodes into it without allocating. Every
// rank must pass the same number of values. It runs Bruck's algorithm —
// ceil(log2 P) rounds for any P, round k shipping the 2^k blocks gathered so
// far to the rank 2^k ahead — which suits these small latency-bound blocks;
// Allgatherv keeps the bandwidth-friendly ring for variable, larger payloads.
// Blocks flow towards higher ranks, as in Barrier: the engine runs equal
// clocks in rank order, so a receive from a lower rank usually finds its
// message already posted and does not have to park.
func (r *Rank) AllgatherInt64s(dst, vals []int64) []int64 {
	n := len(vals)
	defer obs.Begin(r.proc, obs.LayerMPI, "allgather").Bytes(int64(8 * n)).End()
	tag := r.collTag()
	size := r.Size()
	if size == 1 {
		r.proc.Yield()
		return append(dst, vals...)
	}
	// buf holds the blocks of ranks rank, rank-1, rank-2, ... in that order;
	// a sent prefix is never written again, so it can travel by reference.
	buf := make([]byte, 0, 8*n*size)
	for _, v := range vals {
		buf = binary.LittleEndian.AppendUint64(buf, uint64(v))
	}
	for have := 1; have < size; have *= 2 {
		cnt := min(have, size-have)
		r.sendScratch((r.rank+have)%size, tag, buf[:8*n*cnt])
		in, _, _ := r.Recv((r.rank-have+size)%size, tag)
		buf = append(buf, in...)
	}
	dst = slices.Grow(dst, n*size)
	out := dst[len(dst) : len(dst)+n*size]
	for j := 0; j < size; j++ {
		from := (r.rank - j + size) % size
		for k := 0; k < n; k++ {
			out[from*n+k] = decI64(buf[8*(j*n+k):])
		}
	}
	return dst[:len(dst)+n*size]
}

// ExscanInt64 returns the exclusive prefix sum of v over ranks: rank 0
// gets 0, rank i gets v0+...+v(i-1). Used to compute write offsets into a
// shared file.
func (r *Rank) ExscanInt64(v int64) int64 {
	all := r.AllgatherInt64(v)
	var sum int64
	for i := 0; i < r.rank; i++ {
		sum += all[i]
	}
	return sum
}
