// Split-collective and nonblocking writes, after MPI-IO's
// MPI_File_write_all_begin/end and MPI_File_iwrite_at: the communication
// phase of a collective write runs eagerly (it needs every participant on
// the CPU anyway), while the aggregator I/O phase is issued write-behind —
// every server and disk is charged at issue time with the same timestamps a
// blocking write would use, and only the caller's wait for the device is
// deferred to End/Wait. Charging at issue preserves the engine's
// nondecreasing-arrival invariant: deferred requests are timestamped when
// issued and settled when the caller drains.
package mpiio

import (
	"fmt"
	"sort"

	"repro/internal/mpi"
	"repro/internal/obs"
	"repro/internal/pfs"
)

// Pending is the handle of a nonblocking independent operation started by
// IwriteAt, IwriteRuns, IreadAt or IreadRuns. Completion returns the
// virtual time the last deferred device operation finishes; Wait advances
// the caller's clock to it (a no-op if the clock already passed it — the
// overlap won).
type Pending struct {
	f    *File
	end  float64
	op   string // wait-span label; empty means "iwrite_wait"
	done bool
}

// Completion returns the virtual completion time of the deferred I/O.
func (p *Pending) Completion() float64 { return p.end }

// Wait settles the operation: the caller's clock advances to the deferred
// completion time (or stays put if compute already covered it).
func (p *Pending) Wait() {
	if p.done {
		return
	}
	p.done = true
	op := p.op
	if op == "" {
		op = "iwrite_wait"
	}
	sp := obs.Begin(p.f.client.Proc, obs.LayerMPIIO, op)
	p.f.client.Proc.AdvanceTo(p.end)
	sp.End()
}

// NewPending returns a handle completing at the given virtual time on this
// file's rank — for layers above (hdf5) that compose their own deferred
// writes and need a single settle point.
func (f *File) NewPending(end float64) *Pending { return &Pending{f: f, end: end} }

// IwriteAt starts a nonblocking independent contiguous write. On file
// systems without write-behind support it degrades to a blocking write
// whose Pending completes immediately.
func (f *File) IwriteAt(data []byte, off int64) *Pending {
	sp := obs.Begin(f.client.Proc, obs.LayerMPIIO, "iwrite_indep").Bytes(int64(len(data)))
	end := pfs.WriteAtAsync(f.f, f.client, data, off)
	sp.End()
	return &Pending{f: f, end: end}
}

// IwriteRuns starts a nonblocking independent noncontiguous write of the
// flattened view runs (data in run order). The Pending completes when the
// slowest run's device work finishes.
func (f *File) IwriteRuns(runs []mpi.Run, data []byte) *Pending {
	if mpi.TotalLen(runs) != int64(len(data)) {
		panic(fmt.Sprintf("mpiio: IwriteRuns data %d bytes for %d bytes of runs",
			len(data), mpi.TotalLen(runs)))
	}
	sp := obs.Begin(f.client.Proc, obs.LayerMPIIO, "iwrite_runs").Bytes(int64(len(data)))
	end := f.client.Proc.Now()
	var p int64
	for _, run := range runs {
		if e := pfs.WriteAtAsync(f.f, f.client, data[p:p+run.Len], run.Off); e > end {
			end = e
		}
		p += run.Len
	}
	sp.End()
	return &Pending{f: f, end: end}
}

// SplitWrite is an in-flight split-collective write started by
// WriteAtAllBegin. Every rank that called Begin must eventually call End
// (two-phase accesses synchronize there); no other collective operation on
// the same file may be started in between.
type SplitWrite struct {
	f       *File
	end     float64 // max deferred device completion on this rank
	barrier bool    // two-phase path: End runs the trailing barrier
	done    bool
}

// Completion returns the virtual time this rank's share of the deferred
// I/O phase finishes on the devices (the caller's clock for ranks that
// wrote nothing).
func (s *SplitWrite) Completion() float64 { return s.end }

// WriteAtAllBegin starts a split-collective write: the offset exchange and
// the communication phase run now (identically to WriteAtAll), but the
// aggregators issue their coalesced file writes write-behind, so the call
// returns as soon as the exchange is done. The caller may compute until
// End, which settles the clocks against the deferred completions.
func (f *File) WriteAtAllBegin(runs []mpi.Run, data []byte) *SplitWrite {
	if mpi.TotalLen(runs) != int64(len(data)) {
		panic("mpiio: WriteAtAllBegin data/runs length mismatch")
	}
	proc := f.client.Proc
	all := obs.Begin(proc, obs.LayerMPIIO, "write_all_begin").Bytes(int64(len(data)))
	defer all.End()
	off := obs.Begin(proc, obs.LayerMPIIO, "offsets")
	lo, hi, interleaved, ext := f.accessRange(runs)
	off.End()
	if hi <= lo {
		f.r.Barrier()
		return &SplitWrite{f: f, end: proc.Now()}
	}
	if !interleaved && !f.hints.CBForce {
		// Disjoint extents: the I/O phase is this rank's own runs, issued
		// write-behind. As in WriteAtAll there is no trailing barrier.
		all.Attr("path", "independent")
		end := proc.Now()
		var p int64
		for _, run := range runs {
			if e := pfs.WriteAtAsync(f.f, f.client, data[p:p+run.Len], run.Off); e > end {
				end = e
			}
			p += run.Len
		}
		return &SplitWrite{f: f, end: end}
	}
	all.Attr("path", "two-phase")
	naggs, rot := f.aggregators(lo, hi)
	bufOff := bufPrefix(runs)

	parts := make([][]byte, f.r.Size())
	for a := 0; a < naggs; a++ {
		dLo, dHi := domain(lo, hi, naggs, a)
		offs, lens, bpos := intersectRuns(runs, bufOff, dLo, dHi)
		if len(offs) == 0 {
			continue
		}
		payload := make([][]byte, len(offs))
		for i := range offs {
			payload[i] = data[bpos[i] : bpos[i]+lens[i]]
		}
		parts[f.aggRank(a, rot)] = encodePieces(offs, lens, payload)
	}
	exch := obs.Begin(proc, obs.LayerMPIIO, "exchange")
	sendTo, recvFrom := f.partners(nil, nil, ext, lo, hi, naggs, rot)
	recvd := f.r.ExchangeScratch(parts, sendTo, recvFrom) // parts are fresh encodePieces messages, garbage after this call
	exch.End()

	end := proc.Now()
	if f.myAggIndex(naggs, rot) >= 0 {
		iop := obs.Begin(proc, obs.LayerMPIIO, "io").Attr("deferred", "1")
		var pieces []piece
		var assembled int64
		for _, msg := range recvd {
			ps := decodePieces(msg, true)
			for _, pc := range ps {
				assembled += int64(len(pc.data))
			}
			pieces = append(pieces, ps...)
		}
		if len(pieces) > 0 {
			f.r.CopyCost(assembled) // pack into the collective buffer
			sort.Slice(pieces, func(i, j int) bool { return pieces[i].off < pieces[j].off })
			end = f.writeCoalescedDeferred(pieces)
		}
		iop.Bytes(assembled).End()
	}
	return &SplitWrite{f: f, end: end, barrier: true}
}

// End completes the split-collective write: the caller's clock advances to
// its deferred completion (no-op when overlapped compute already covered
// it) and, on the two-phase path, the participants resynchronize like
// WriteAtAll's trailing barrier. End is idempotent.
func (s *SplitWrite) End() {
	if s.done {
		return
	}
	s.done = true
	sp := obs.Begin(s.f.client.Proc, obs.LayerMPIIO, "write_all_end")
	s.f.client.Proc.AdvanceTo(s.end)
	if s.barrier {
		s.f.r.Barrier()
	}
	sp.End()
}

// writeCoalescedDeferred is writeCoalesced issued write-behind: every chunk
// charges the file system at issue time and the maximum device completion
// is returned instead of awaited. Chunk contents and offsets are identical
// to the blocking path, so file bytes cannot differ.
func (f *File) writeCoalescedDeferred(pieces []piece) float64 {
	cb := f.hints.CBBufferSize
	end := f.client.Proc.Now()
	buf := make([]byte, 0, cb)
	var start int64 = -1
	write := func(data []byte, off int64) {
		if e := pfs.WriteAtAsync(f.f, f.client, data, off); e > end {
			end = e
		}
	}
	flush := func() {
		if start >= 0 && len(buf) > 0 {
			write(buf, start)
		}
		buf = buf[:0]
		start = -1
	}
	for _, pc := range pieces {
		if start >= 0 && (pc.off != start+int64(len(buf)) || int64(len(buf)) >= cb) {
			flush()
		}
		if start < 0 {
			start = pc.off
		}
		rem := pc.data
		for len(rem) > 0 {
			space := cb - int64(len(buf))
			if space == 0 {
				nextStart := start + int64(len(buf))
				write(buf, start)
				buf = buf[:0]
				start = nextStart
				space = cb
			}
			take := int64(len(rem))
			if take > space {
				take = space
			}
			buf = append(buf, rem[:take]...)
			rem = rem[take:]
		}
	}
	flush()
	return end
}
