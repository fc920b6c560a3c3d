// Transport: how one array transfer of the checkpoint walk reaches its
// container. Two independent choices are made here and nowhere else:
//
//   - sync vs deferred (Config.AsyncIO): the same call is issued blocking or
//     behind (mpiio's issue mode, DESIGN.md §8). A deferred write settles
//     when the dump drains, after the rank has overlapped the next evolution
//     step's compute; a deferred read settles just before its buffer is
//     consumed, so the next batch's device time drains underneath the current
//     batch's decode/scatter/redistribution work. The modes time differently
//     — the chunks of a blocking collective serialise, deferred ones are all
//     charged at issue — while the file bytes and the restart state are
//     identical. Deferred requests carry no deadline, so a run with the retry
//     policy armed stays blocking in both directions (asyncWrites,
//     asyncReads): only a blocking request can turn a dead data server into
//     a typed *mpiio.IOError.
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
	n          int64        // lend reads (xAt, xSlabIndep): the bytes to read
	offs, lens []int64      // xList
	runs       []mpi.Run    // xAll, xRuns
	sel        mpi.Subarray // xSlab, xSlabIndep

	// Reads that bring no buffer: where the bytes land at settle. An xAll or
	// xSlab read (or the independent form a tolerant or node-local read turns
	// it into) leaves a new buffer; an xSeg read leaves the decoded bytes of
	// its slot (every slot when negative), nil when a tolerant read absorbed
	// a failure.
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
	behind := s.pend != nil
	var p *mpiio.Pending
	switch x.kind {
	case xAt:
		p = x.f.IssueWriteAt(behind, x.buf, x.off)
	case xList:
		p = x.f.IssueWriteList(behind, x.offs, x.lens, x.buf)
	case xAll:
		p = x.f.IssueWriteAtAll(behind, x.runs, x.buf)
	case xRuns:
		p = x.f.IssueWriteRuns(behind, x.runs, x.buf)
	case xSlab, xSlabIndep:
		p = x.ds.IssueWriteHyperslab(behind, x.kind == xSlab, x.sel, x.buf)
	case xSeg:
		p = x.ds.IssueWriteCompressed(behind, x.buf)
	}
	if behind {
		s.pend.note(p.Completion())
		s.pend.drains = append(s.pend.drains, p.Wait)
	}
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
	if x.out != nil && (x.kind == xRuns || x.kind == xSlabIndep) {
		// Only the collective forms make the buffer they read into. The
		// independent one fills zeros, which a failure a tolerant read-back
		// absorbs leaves in place.
		n := mpi.TotalLen(x.runs)
		if x.kind == xSlabIndep {
			n = x.sel.Bytes()
		}
		x.buf = make([]byte, n)
		*x.out = x.buf
	}
	// Read-ahead never runs tolerant (see asyncReads), so behind, tolerantIO
	// and tolerate absorb nothing and failures below stay fatal.
	behind := s.rpend != nil
	t0 := s.r.Now()
	var p *mpiio.Pending
	s.tolerantIO(func() {
		switch x.kind {
		case xAt:
			p = x.f.IssueReadAt(behind, x.buf, x.off)
		case xList:
			p = x.f.IssueReadList(behind, x.offs, x.lens, x.buf)
		case xAll:
			p = x.f.IssueReadAtAllInto(behind, x.runs, x.out)
		case xRuns:
			p = x.f.IssueReadRuns(behind, x.runs, x.buf)
		case xSlab:
			p = x.ds.IssueReadHyperslabInto(behind, x.sel, x.out)
		case xSlabIndep:
			p = x.ds.IssueReadHyperslab(behind, x.sel, x.buf)
		case xSeg:
			var err error
			p, err = x.ds.IssueReadCompressed(behind, x.slot, x.out)
			s.tolerate(err)
		}
	})
	return s.settleRead(behind, p, t0)
}

// lend is read for an xAt or xSlabIndep read of x.n contiguous bytes that
// takes the store's read-only pieces (pfs.Lend), in the handle's scratch
// until its next call. A tolerant read reads into zeros, as above.
func (s *Sim) lend(x xfer) (pieces [][]byte, settle func()) {
	if s.tolerant {
		x.buf = make([]byte, x.n)
		return [][]byte{x.buf}, s.read(x)
	}
	behind, t0 := s.rpend != nil, s.r.Now()
	var p *mpiio.Pending
	if x.kind == xAt {
		pieces, p = x.f.IssueLendAt(behind, x.n, x.off)
	} else {
		pieces, p = x.ds.IssueLendHyperslab(behind, x.sel)
	}
	return pieces, s.settleRead(behind, p, t0)
}

// settleRead returns the settle of a read issued at t0: called just before
// the buffer is consumed, it splits a behind read's device time into exposed
// wait and hidden overlap and runs the handle's Wait.
func (s *Sim) settleRead(behind bool, p *mpiio.Pending, t0 float64) func() {
	if !behind {
		return settled
	}
	rp, end := s.rpend, p.Completion()
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
		p.Wait()
	}
}

// checkpoint writes dump generation d. With the write-behind pipeline it is
// double-buffered: issue the dump's writes deferred, run the next evolution
// step's compute while the devices drain, then settle — accumulating into
// the result how much dump wall-time stayed exposed (issue + drain) versus
// how much device time hid under the compute.
func (s *Sim) checkpoint(d int) {
	if !s.asyncWrites() {
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

// asyncWrites reports whether dumps use the write-behind pipeline. Runs with
// the retry policy armed stay blocking — deferred requests carry no
// deadline, so only a blocking request can turn a dead data server into a
// typed *mpiio.IOError instead of a never-completing one.
func (s *Sim) asyncWrites() bool {
	return s.async && !s.hints.Retry.Enabled
}

// asyncReads reports whether this restart uses the read-ahead pipeline:
// under the same condition as asyncWrites, and never for tolerant
// read-backs, whose failures must be absorbable.
func (s *Sim) asyncReads() bool {
	return s.asyncWrites() && !s.tolerant
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
