// Split-collective and nonblocking reads, after MPI-IO's
// MPI_File_read_all_begin/end and MPI_File_iread_at — the read mirror of
// split.go. The request phase of a collective read runs eagerly (it needs
// every participant on the CPU anyway), while the aggregator I/O phase is
// issued read-behind: every server and disk is charged at issue time with
// exactly the timestamps a blocking read would use, and only the caller's
// wait for the device — plus the causally-downstream scatter and reply
// exchange — is deferred to End. Charging at issue preserves the engine's
// nondecreasing-arrival invariant, exactly as on the write side.
//
// The store holds real bytes, so a deferred read fills its buffer at issue;
// the buffer must simply not be consumed before End/Wait settles the clock,
// which is the split-collective contract anyway.
package mpiio

import (
	"encoding/binary"
	"fmt"
	"sort"

	"repro/internal/mpi"
	"repro/internal/obs"
	"repro/internal/pfs"
)

// IreadAt starts a nonblocking independent contiguous read into buf. On
// file systems without read-behind support it degrades to a blocking read
// whose Pending completes immediately. buf is valid after Wait.
func (f *File) IreadAt(buf []byte, off int64) *Pending {
	sp := obs.Begin(f.client.Proc, obs.LayerMPIIO, "iread_indep").Bytes(int64(len(buf)))
	end := pfs.ReadAtAsync(f.f, f.client, buf, off)
	sp.End()
	return &Pending{f: f, end: end, op: "iread_wait"}
}

// IreadRuns starts a nonblocking independent noncontiguous read of the
// flattened view runs into buf (in run order). The Pending completes when
// the slowest run's device work finishes.
func (f *File) IreadRuns(runs []mpi.Run, buf []byte) *Pending {
	if mpi.TotalLen(runs) != int64(len(buf)) {
		panic(fmt.Sprintf("mpiio: IreadRuns buf %d bytes for %d bytes of runs",
			len(buf), mpi.TotalLen(runs)))
	}
	sp := obs.Begin(f.client.Proc, obs.LayerMPIIO, "iread_runs").Bytes(int64(len(buf)))
	end := f.client.Proc.Now()
	var p int64
	for _, run := range runs {
		if e := pfs.ReadAtAsync(f.f, f.client, buf[p:p+run.Len], run.Off); e > end {
			end = e
		}
		p += run.Len
	}
	sp.End()
	return &Pending{f: f, end: end, op: "iread_wait"}
}

// SplitRead is an in-flight split-collective read started by ReadAtAllBegin.
// Every rank that called Begin must eventually call End (two-phase accesses
// exchange replies and synchronize there); no other collective operation on
// the same file may be started in between, and buf is valid only after End.
type SplitRead struct {
	f       *File
	end     float64 // max deferred device completion on this rank
	barrier bool    // two-phase path: End runs the trailing barrier
	done    bool
	// finish runs after the clock settles at End: on the two-phase path it
	// carries the scatter cost, the reply exchange and the placement into
	// the caller's buffer — work causally downstream of the device reads.
	finish func()
}

// Completion returns the virtual time this rank's share of the deferred
// I/O phase finishes on the devices (the caller's clock for ranks that
// read nothing).
func (s *SplitRead) Completion() float64 { return s.end }

// ReadAtAllBegin starts a split-collective read: the offset exchange and the
// request phase run now (identically to ReadAtAll), and the aggregators
// issue their coalesced extent reads read-behind, so the call returns as
// soon as the requests are on the devices. The caller may compute until
// End, which settles the clocks, redistributes the pieces and fills buf.
func (f *File) ReadAtAllBegin(runs []mpi.Run, buf []byte) *SplitRead {
	if mpi.TotalLen(runs) != int64(len(buf)) {
		panic("mpiio: ReadAtAllBegin buf/runs length mismatch")
	}
	proc := f.client.Proc
	all := obs.Begin(proc, obs.LayerMPIIO, "read_all_begin").Bytes(int64(len(buf)))
	defer all.End()
	offSp := obs.Begin(proc, obs.LayerMPIIO, "offsets")
	lo, hi, interleaved, ext := f.accessRange(runs)
	offSp.End()
	if hi <= lo {
		f.r.Barrier()
		return &SplitRead{f: f, end: proc.Now()}
	}
	if !interleaved && !f.hints.CBForce {
		// Disjoint extents: the I/O phase is this rank's own runs, issued
		// read-behind. As in ReadAtAll there is no trailing barrier.
		all.Attr("path", "independent")
		end := proc.Now()
		var p int64
		for _, run := range runs {
			if e := pfs.ReadAtAsync(f.f, f.client, buf[p:p+run.Len], run.Off); e > end {
				end = e
			}
			p += run.Len
		}
		return &SplitRead{f: f, end: end}
	}
	all.Attr("path", "two-phase")
	naggs, rot := f.aggregators(lo, hi)
	bufOff := bufPrefix(runs)

	// Request phase (eager): tell each aggregator which extents we need and
	// remember the matching buffer positions, in order.
	type want struct{ bpos []int64 }
	wants := make([]want, naggs)
	reqs := make([][]byte, f.r.Size())
	for a := 0; a < naggs; a++ {
		dLo, dHi := domain(lo, hi, naggs, a)
		offs, lens, bpos := intersectRuns(runs, bufOff, dLo, dHi)
		if len(offs) == 0 {
			continue
		}
		wants[a] = want{bpos: bpos}
		reqs[f.aggRank(a, rot)] = encodePieces(offs, lens, make([][]byte, len(offs)))
	}
	// The partner lists are this call's own (not the handle's scratch): the
	// reply exchange in finish reuses them, swapped, after Begin has returned.
	exch := obs.Begin(proc, obs.LayerMPIIO, "exchange")
	sendTo, recvFrom := f.partners(nil, nil, ext, lo, hi, naggs, rot)
	reqsRecvd := f.r.ExchangeScratch(reqs, sendTo, recvFrom) // reqs are fresh encodePieces messages, garbage after this call
	exch.End()

	// I/O phase: aggregators issue the coalesced union of requested extents
	// read-behind. The extent buffers are filled at issue; everything that
	// causally depends on the data having arrived — the scatter cost, the
	// reply exchange, the placement — runs in finish at End.
	type reqPiece struct {
		src  int
		idx  int
		off  int64
		n    int64
		data []byte
	}
	end := proc.Now()
	var all2 []reqPiece
	var extents []mpi.Run
	var extData [][]byte
	var readBytes int64
	if f.myAggIndex(naggs, rot) >= 0 {
		iop := obs.Begin(proc, obs.LayerMPIIO, "io").Attr("deferred", "1")
		for src, msg := range reqsRecvd {
			if len(msg) < 4 {
				continue
			}
			// Header walk: a read request carries no payload, so decoding
			// pieces (with their placeholder buffers) would only allocate.
			count := int(binary.LittleEndian.Uint32(msg))
			p := 4
			for i := 0; i < count; i++ {
				all2 = append(all2, reqPiece{
					src: src,
					idx: i,
					off: int64(binary.LittleEndian.Uint64(msg[p:])),
					n:   int64(binary.LittleEndian.Uint64(msg[p+8:])),
				})
				p += 16
			}
		}
		if len(all2) > 0 {
			sort.Slice(all2, func(i, j int) bool {
				if all2[i].off != all2[j].off {
					return all2[i].off < all2[j].off
				}
				if all2[i].src != all2[j].src {
					return all2[i].src < all2[j].src
				}
				return all2[i].idx < all2[j].idx
			})
			for _, rp := range all2 {
				if len(extents) > 0 {
					last := &extents[len(extents)-1]
					if rp.off <= last.Off+last.Len {
						if e := rp.off + rp.n; e > last.Off+last.Len {
							last.Len = e - last.Off
						}
						continue
					}
				}
				extents = append(extents, mpi.Run{Off: rp.off, Len: rp.n})
			}
			extData = make([][]byte, len(extents))
			for i, ext := range extents {
				extData[i] = make([]byte, ext.Len)
				for base := int64(0); base < ext.Len; base += f.hints.CBBufferSize {
					n := min64(f.hints.CBBufferSize, ext.Len-base)
					if e := pfs.ReadAtAsync(f.f, f.client, extData[i][base:base+n], ext.Off+base); e > end {
						end = e
					}
				}
				readBytes += ext.Len
			}
		}
		iop.Bytes(readBytes).End()
	}
	finish := func() {
		replies := make([][]byte, f.r.Size())
		if len(all2) > 0 {
			f.r.CopyCost(readBytes) // scatter out of the collective buffer
			find := func(off, n int64) []byte {
				for i, ext := range extents {
					if off >= ext.Off && off+n <= ext.Off+ext.Len {
						return extData[i][off-ext.Off : off-ext.Off+n]
					}
				}
				panic("mpiio: request outside read extents")
			}
			perSrc := make(map[int][]reqPiece)
			for _, rp := range all2 {
				rp.data = find(rp.off, rp.n)
				perSrc[rp.src] = append(perSrc[rp.src], rp)
			}
			for src, rps := range perSrc {
				sort.Slice(rps, func(i, j int) bool { return rps[i].idx < rps[j].idx })
				offs := make([]int64, len(rps))
				lens := make([]int64, len(rps))
				payload := make([][]byte, len(rps))
				for i, rp := range rps {
					offs[i], lens[i], payload[i] = rp.off, rp.n, rp.data
				}
				replies[src] = encodePieces(offs, lens, payload)
			}
		}
		exch := obs.Begin(f.client.Proc, obs.LayerMPIIO, "exchange")
		got := f.r.ExchangeScratch(replies, recvFrom, sendTo) // replies are fresh encodePieces messages, garbage after this call
		exch.End()
		for a := 0; a < naggs; a++ {
			if len(wants[a].bpos) == 0 {
				continue
			}
			ps := decodePieces(got[f.aggRank(a, rot)], true)
			if len(ps) != len(wants[a].bpos) {
				panic(fmt.Sprintf("mpiio: aggregator %d returned %d pieces, want %d",
					a, len(ps), len(wants[a].bpos)))
			}
			for i, pc := range ps {
				copy(buf[wants[a].bpos[i]:wants[a].bpos[i]+int64(len(pc.data))], pc.data)
			}
		}
	}
	return &SplitRead{f: f, end: end, barrier: true, finish: finish}
}

// End completes the split-collective read: the caller's clock advances to
// its deferred completion (no-op when overlapped compute already covered
// it) and, on the two-phase path, the aggregators' replies are exchanged,
// buf is filled and the participants resynchronize like ReadAtAll's
// trailing barrier. End is idempotent.
func (s *SplitRead) End() {
	if s.done {
		return
	}
	s.done = true
	sp := obs.Begin(s.f.client.Proc, obs.LayerMPIIO, "read_all_end")
	s.f.client.Proc.AdvanceTo(s.end)
	if s.finish != nil {
		s.finish()
	}
	if s.barrier {
		s.f.r.Barrier()
	}
	sp.End()
}
