// How the devices are driven. Every access kind of this package — {write,
// read} × {at, runs, list, at-all} — is one implementation that hands its
// raw requests to an issuer, and the issuer is the whole difference between
// a blocking operation and its nonblocking or split-collective twin
// (MPI_File_iwrite_at, MPI_File_write_all_begin/end and their read mirrors).
//
// A blocking issuer waits for every request in turn, under the hints'
// RetryPolicy. A behind issuer (write-behind, read-ahead) charges every
// server and disk at issue time, with the timestamps a blocking request
// issued now would use, and defers only the caller's wait: the operation
// returns a Pending whose Wait settles the clock. Charging at issue
// preserves the engine's nondecreasing-arrival invariant — deferred requests
// are timestamped when issued and settled when the caller drains. The store
// holds real bytes, so a behind write stores its data and a behind read
// fills its buffer at issue; a read buffer must simply not be consumed
// before Wait.
//
// What differs between the two modes, exhaustively:
//
//  1. Blocking requests go through RetryPolicy and its deadlines, and the
//     chunks of one operation serialise (the caller waits for each). Behind
//     requests carry no deadline and are all charged at issue; the handle
//     tracks the latest completion.
//  2. Blocking ReadRuns sieves under DataSieving. Behind reads — IssueReadRuns
//     and the independent branch of IssueReadAtAll — issue one request per
//     run and never sieve; the independent branch of a behind collective
//     issues its runs directly, without the nested write_runs/read_runs
//     span the blocking branch opens by calling WriteRuns/ReadRuns.
//  3. Two-phase read: blocking charges the aggregators' scatter CopyCost
//     inside the io span right after the reads; behind charges it in Wait
//     after the clock settles, followed by the reply exchange, the placement
//     and the barrier.
//  4. Two-phase write: the trailing barrier runs at call end (blocking) or
//     inside Wait after the clock settles (behind). The independent branch
//     has no barrier in either mode.
//  5. Scratch: a blocking two-phase operation borrows the handle's bundle; a
//     behind one takes a bundle of its own off the rank's free list at Begin
//     and returns it at the end of its Wait, so any number may be outstanding
//     across other operations on the handle.
//  6. Span names: write_all vs write_all_begin + write_all_end, write_indep
//     vs iwrite_indep + iwrite_wait, and so on, with deferred=1 on a behind
//     io span — the diagnosis layer's input.
package mpiio

import (
	"repro/internal/mpi"
	"repro/internal/obs"
	"repro/internal/pfs"
)

// issuer drives one operation's device requests. It lives on the stack of
// the Issue* call that made it; a blocking operation costs no allocation
// for being written against it.
type issuer struct {
	f      *File
	behind bool
	// end is the latest device completion issued so far; in behind mode, where
	// it becomes the operation's completion, no earlier than the clock when the
	// issuer was made (an operation that issues nothing completes at once).
	end float64
}

func (f *File) issuer(behind bool) issuer {
	is := issuer{f: f, behind: behind}
	if behind {
		is.end = f.client.Proc.Now()
	}
	return is
}

func (is *issuer) write(data []byte, off int64) { is.do(pfs.Req{Write: true, Buf: data, Off: off}) }
func (is *issuer) read(buf []byte, off int64)   { is.do(pfs.Req{Buf: buf, Off: off}) }

// do issues r in the issuer's mode.
func (is *issuer) do(r pfs.Req) {
	if is.behind {
		r.Mode = pfs.Behind
	}
	if e := is.f.dev(r); e > is.end {
		is.end = e
	}
}

// writeRuns issues one write per run of a flattened view, data in run order.
func (is *issuer) writeRuns(runs []mpi.Run, data []byte) {
	var p int64
	for _, run := range runs {
		is.write(data[p:p+run.Len], run.Off)
		p += run.Len
	}
}

// readRuns issues one read per run of a flattened view into buf.
func (is *issuer) readRuns(runs []mpi.Run, buf []byte) {
	var p int64
	for _, run := range runs {
		is.read(buf[p:p+run.Len], run.Off)
		p += run.Len
	}
}

// pending closes a behind operation into its handle; a blocking operation
// has nothing outstanding and returns nil.
func (is *issuer) pending(waitOp string) *Pending {
	if !is.behind {
		return nil
	}
	return &Pending{f: is.f, end: is.end, op: waitOp}
}

// pick chooses a span or operation name by issue mode.
func pick(behind bool, blocking, deferred string) string {
	if behind {
		return deferred
	}
	return blocking
}

// Pending is the handle of every operation issued behind: the nonblocking
// independent ones (IssueWriteAt, IssueReadRuns, IssueWriteList, ... with
// behind set — MPI_File_iwrite_at and its kin), the split-collective ones
// (IssueWriteAtAll, IssueReadAtAll — MPI_File_write_all_begin and
// read_all_begin) and whatever the layers above compose from them. Completion is the virtual time the last
// deferred device request finishes; Wait settles it.
type Pending struct {
	f    *File
	end  float64
	op   string // wait-span name
	tail func() // collective tail, inside the wait span: reply phase, barrier, scratch release
	then func() // the caller's downstream work, after the wait span (Then)
	done bool
}

// Completion returns the virtual completion time of the deferred I/O (the
// issue-time clock for an operation that had nothing to issue).
func (p *Pending) Completion() float64 { return p.end }

// Wait settles the operation: the caller's clock advances to the deferred
// completion time (or stays put if compute already covered it — the overlap
// won), a split-collective operation then runs its reply phase and trailing
// barrier, and finally the continuation set by Then runs. Wait is
// idempotent.
func (p *Pending) Wait() {
	if p.done {
		return
	}
	p.done = true
	sp := obs.Begin(p.f.client.Proc, obs.LayerMPIIO, p.op)
	p.f.client.Proc.AdvanceTo(p.end)
	if p.tail != nil {
		p.tail()
	}
	sp.End()
	if p.then != nil {
		p.then()
	}
}

// Then sets work that is causally downstream of the data — a hyperslab
// scatter, a segment decode — to run at the end of Wait, outside the MPI-IO
// wait span. A handle carries at most one continuation. It returns p.
func (p *Pending) Then(fn func()) *Pending {
	p.then = fn
	return p
}

// NewPending returns a handle completing at the given virtual time on this
// file's rank — for layers above (hdf5) that compose one settle point from
// several deferred requests.
func (f *File) NewPending(end float64) *Pending {
	return &Pending{f: f, end: end, op: "iwrite_wait"}
}
