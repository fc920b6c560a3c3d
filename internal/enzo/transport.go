// Transport: how one array transfer of the checkpoint walk reaches its
// container. Two independent choices are made here and nowhere else:
//
//   - sync vs deferred (Config.AsyncIO): a deferred write goes through the
//     nonblocking/split-collective twin of the blocking call and settles when
//     the dump drains, after the rank has overlapped the next evolution
//     step's compute; a deferred read settles just before its buffer is
//     consumed, so the next batch's device time drains underneath the current
//     batch's decode/scatter/redistribution work. Both twins stay because
//     they time differently — the chunks of a blocking collective serialise,
//     deferred ones are all charged at issue — while the file bytes and the
//     restart state are identical.
//   - strict vs tolerant (scrubs and generation-fallback restarts): a
//     tolerant read absorbs an exhausted-retry failure into the rank's
//     damaged flag, and replaces a collective read by its independent form —
//     one rank's failure must not desynchronize a two-phase exchange.
package enzo

import (
	"repro/internal/hdf5"
	"repro/internal/mpi"
	"repro/internal/mpiio"
	"repro/internal/obs"
)

type xferKind uint8

const (
	xAt        xferKind = iota // one contiguous extent (MPI_File_{read,write}_at)
	xList                      // explicit (offset,length) vector, one list-I/O pass
	xAll                       // collective two-phase access over a file view
	xRuns                      // independent access over a file view
	xSlab                      // collective HDF5 hyperslab
	xSlabIndep                 // independent HDF5 hyperslab
	xSeg                       // packed per-rank segment(s) of a compressed HDF5 dataset
)

// xfer is one array transfer against an open container: an MPI-IO file (f)
// or an HDF5 dataset (ds), with the addressing its kind needs.
type xfer struct {
	kind xferKind
	f    *mpiio.File
	ds   *hdf5.Dataset
	buf  []byte // data to write, or the buffer a read fills (raw bytes for an xSeg write)

	off        int64        // xAt
	offs, lens []int64      // xList
	runs       []mpi.Run    // xAll, xRuns
	sel        mpi.Subarray // xSlab, xSlabIndep

	// xSeg reads: the slot to fetch (every slot when negative) and where the
	// decoded bytes land at settle — nil when a tolerant read absorbed a
	// failure.
	slot int
	out  *[]byte
}

// pendingDump collects the deferred pieces of one in-flight checkpoint.
type pendingDump struct {
	// drains settle the deferred operations, in issue order — the order
	// matters because split-collective Ends resynchronize the communicator
	// and every rank appends its collective operations in SPMD order.
	drains []func()
	// closers run after the drains (a file closes only once its writes
	// have settled).
	closers []func()
	// maxEnd is the latest deferred device completion issued by this rank.
	maxEnd float64
}

func (p *pendingDump) note(end float64) {
	if end > p.maxEnd {
		p.maxEnd = end
	}
}

// pendingRead tracks one restart's deferred reads: the split of elapsed
// device time into exposed wait and hidden overlap, plus the latest
// deferred completion as a drain backstop.
type pendingRead struct {
	exposed float64 // device wait the rank actually paid at settle points
	hidden  float64 // device time that completed under other pipeline work
	maxEnd  float64 // latest deferred completion issued by this rank
}

// write performs one data write: blocking when no dump is pending,
// write-behind while one is.
func (s *Sim) write(x xfer) {
	if s.pend == nil {
		switch x.kind {
		case xAt:
			x.f.WriteAt(x.buf, x.off)
		case xList:
			x.f.WriteList(x.offs, x.lens, x.buf)
		case xAll:
			x.f.WriteAtAll(x.runs, x.buf)
		case xRuns:
			x.f.WriteRuns(x.runs, x.buf)
		case xSlab:
			x.ds.WriteHyperslab(x.sel, x.buf)
		case xSlabIndep:
			x.ds.WriteHyperslabIndependent(x.sel, x.buf)
		case xSeg:
			x.ds.WriteCompressed(s.codec, x.buf)
		}
		return
	}
	var end float64
	var settle func()
	switch x.kind {
	case xAt:
		p := x.f.IwriteAt(x.buf, x.off)
		end, settle = p.Completion(), p.Wait
	case xList:
		p := x.f.IwriteList(x.offs, x.lens, x.buf)
		end, settle = p.Completion(), p.Wait
	case xAll:
		sw := x.f.WriteAtAllBegin(x.runs, x.buf)
		end, settle = sw.Completion(), sw.End
	case xRuns:
		p := x.f.IwriteRuns(x.runs, x.buf)
		end, settle = p.Completion(), p.Wait
	case xSlab:
		sw := x.ds.WriteHyperslabBegin(x.sel, x.buf)
		end, settle = sw.Completion(), sw.End
	case xSlabIndep:
		p := x.ds.WriteHyperslabIndependentAsync(x.sel, x.buf)
		end, settle = p.Completion(), p.Wait
	case xSeg:
		p := x.ds.WriteCompressedAsync(s.codec, x.buf)
		end, settle = p.Completion(), p.Wait
	}
	s.pend.note(end)
	s.pend.drains = append(s.pend.drains, settle)
}

// closeAfterDrain closes a dump container: now, or once the pending dump's
// writes have settled.
func (s *Sim) closeAfterDrain(closer func()) {
	if s.pend == nil {
		closer()
		return
	}
	s.pend.closers = append(s.pend.closers, closer)
}

// metaSink is where a dump container reports its own deferred metadata
// writes (hdf5.File.SetWriteBehindMeta); nil keeps them synchronous.
func (s *Sim) metaSink() func(end float64) {
	if s.pend == nil {
		return nil
	}
	return s.pend.note
}

// deferCompletion folds a device completion issued below the transport
// (castore chunk writes) into the pending dump; false means no dump is
// pending and the caller must wait for it itself.
func (s *Sim) deferCompletion(end float64) bool {
	if s.pend == nil {
		return false
	}
	s.pend.note(end)
	return true
}

// settled is the settle of a read that already completed.
func settled() {}

// read issues one data read and returns its settle; the buffer (or x.out)
// is valid only after the settle ran. Blocking reads complete here and
// return settled.
func (s *Sim) read(x xfer) func() {
	if s.tolerant {
		switch x.kind {
		case xAll:
			x.kind = xRuns
		case xSlab:
			x.kind = xSlabIndep
		}
	}
	if s.rpend == nil {
		s.tolerantIO(func() {
			switch x.kind {
			case xAt:
				x.f.ReadAt(x.buf, x.off)
			case xList:
				x.f.ReadList(x.offs, x.lens, x.buf)
			case xAll:
				x.f.ReadAtAll(x.runs, x.buf)
			case xRuns:
				x.f.ReadRuns(x.runs, x.buf)
			case xSlab:
				x.ds.ReadHyperslab(x.sel, x.buf)
			case xSlabIndep:
				x.ds.ReadHyperslabIndependent(x.sel, x.buf)
			case xSeg:
				var raw []byte
				var err error
				if x.slot < 0 {
					raw, err = x.ds.ReadCompressedAll()
				} else {
					raw, err = x.ds.ReadCompressedSeg(x.slot)
				}
				if !s.tolerate(err) {
					*x.out = raw
				}
			}
		})
		return settled
	}
	// Read-ahead never runs tolerant (see asyncReads), so failures below
	// stay fatal.
	t0 := s.r.Now()
	var end float64
	var fin func()
	switch x.kind {
	case xAt:
		p := x.f.IreadAt(x.buf, x.off)
		end, fin = p.Completion(), p.Wait
	case xList:
		p := x.f.IreadList(x.offs, x.lens, x.buf)
		end, fin = p.Completion(), p.Wait
	case xAll:
		sr := x.f.ReadAtAllBegin(x.runs, x.buf)
		end, fin = sr.Completion(), sr.End
	case xRuns:
		p := x.f.IreadRuns(x.runs, x.buf)
		end, fin = p.Completion(), p.Wait
	case xSlab:
		sr := x.ds.ReadHyperslabBegin(x.sel, x.buf)
		end, fin = sr.Completion(), sr.End
	case xSlabIndep:
		sr := x.ds.ReadHyperslabIndependentAsync(x.sel, x.buf)
		end, fin = sr.Completion(), sr.End
	case xSeg:
		var sr *hdf5.SegRead
		var err error
		if x.slot < 0 {
			sr, err = x.ds.ReadCompressedAllAsync()
		} else {
			sr, err = x.ds.ReadCompressedSegAsync(x.slot)
		}
		if err != nil {
			panic(err)
		}
		out := x.out
		end, fin = sr.Completion(), func() {
			raw, err := sr.Wait()
			if err != nil {
				panic(err)
			}
			*out = raw
		}
	}
	// The settle, called just before the buffer is consumed, splits the
	// elapsed device time into exposed wait and hidden overlap and runs fin
	// (whose AdvanceTo moves the clock).
	rp := s.rpend
	if end > rp.maxEnd {
		rp.maxEnd = end
	}
	return func() {
		wait := end - s.r.Now()
		if wait < 0 {
			wait = 0
		}
		if hid := (end - t0) - wait; hid > 0 {
			rp.hidden += hid
		}
		rp.exposed += wait
		fin()
	}
}

// checkpoint writes dump generation d. With the write-behind pipeline it is
// double-buffered: issue the dump's writes deferred, run the next evolution
// step's compute while the devices drain, then settle — accumulating into
// the result how much dump wall-time stayed exposed (issue + drain) versus
// how much device time hid under the compute.
func (s *Sim) checkpoint(d int) {
	if !s.async {
		s.writeDump(d)
		return
	}
	t0 := s.r.Now()
	s.pend = &pendingDump{maxEnd: t0}
	issue := obs.Begin(s.r.Proc(), obs.LayerApp, "dump_issue")
	s.writeDump(d)
	issue.End()
	pend := s.pend
	s.pend = nil
	t1 := s.r.Now()

	ov := obs.Begin(s.r.Proc(), obs.LayerApp, "dump_overlap_compute")
	s.r.Compute(s.localCells() * s.cfg.FlopsPerCell)
	ov.End()
	t2 := s.r.Now()

	dr := obs.Begin(s.r.Proc(), obs.LayerApp, "dump_drain")
	for _, fn := range pend.drains {
		fn()
	}
	s.r.Proc().AdvanceTo(pend.maxEnd)
	for _, fn := range pend.closers {
		fn()
	}
	dr.End()
	t3 := s.r.Now()

	// Exposed: what the rank actually waited on I/O. Hidden: device time
	// past issue, capped by the compute window it hid under.
	exposed := (t1 - t0) + (t3 - t2)
	hidden := pend.maxEnd - t1
	if c := t2 - t1; hidden > c {
		hidden = c
	}
	if hidden < 0 {
		hidden = 0
	}
	exposedMax := s.r.AllreduceFloat64(exposed, mpi.OpMax)
	hiddenMax := s.r.AllreduceFloat64(hidden, mpi.OpMax)
	if s.r.Rank() == 0 {
		s.res.ExposedWrite += exposedMax
		s.res.HiddenWrite += hiddenMax
	}
}

// asyncReads reports whether this restart uses the read-ahead pipeline.
// Tolerant read-backs and runs with the retry policy armed stay blocking —
// deferred reads carry no deadline, so only the blocking path can turn a
// dead data server into a typed *mpiio.IOError instead of a
// never-completing request.
func (s *Sim) asyncReads() bool {
	return s.async && !s.tolerant && !s.hints.Retry.Enabled
}

// readRestart restores dump generation d; with the read-ahead pipeline
// active it tracks every deferred read and folds the exposed/hidden split
// into the result (max across ranks, mirroring the write-behind
// accounting). It is collective — every rank calls it the same number of
// times, including during scrubs and generation fallbacks.
func (s *Sim) readRestart(d int) {
	if !s.asyncReads() {
		s.io.readRestart(d)
		return
	}
	s.rpend = &pendingRead{maxEnd: s.r.Now()}
	s.io.readRestart(d)
	rp := s.rpend
	s.rpend = nil
	// Drain backstop: no deferred read may outlive the restart phase, even
	// if a path skipped its settle.
	if now := s.r.Now(); rp.maxEnd > now {
		rp.exposed += rp.maxEnd - now
		s.r.Proc().AdvanceTo(rp.maxEnd)
	}
	exposedMax := s.r.AllreduceFloat64(rp.exposed, mpi.OpMax)
	hiddenMax := s.r.AllreduceFloat64(rp.hidden, mpi.OpMax)
	if s.r.Rank() == 0 {
		s.res.ExposedRead += exposedMax
		s.res.HiddenRead += hiddenMax
	}
}
