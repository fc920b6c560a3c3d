// Package mpiio models MPI-IO as implemented by ROMIO: explicit-offset
// independent access, noncontiguous access through flattened file views
// (run lists), independent noncontiguous reads with data sieving, and
// collective read/write using the two-phase strategy (communication phase
// + I/O phase over evenly partitioned file domains).
//
// The package moves real bytes: collective writes really assemble the
// aggregators' buffers from the participants' data and store them in the
// underlying pfs file, so the test suite can verify that every strategy
// produces identical file contents.
//
// A written buffer belongs to the file: pfs keeps the slice a write hands it
// (DESIGN.md §13), and the independent paths — WriteAt, WriteRuns, WriteList,
// and WriteAtAll when it falls back to them — hand it slices of the caller's
// buffer. After they return the caller must not modify that buffer again, as
// after mpi's Gatherv and unlike after Send. The two-phase path hands pfs
// clones of its arena chunks (issueExtents), so there the caller's buffer is
// free; a caller cannot know which path a collective took.
//
// The two-phase aggregator is one path, run in either direction: a rank cuts
// its runs at the file-domain boundaries in one pass (sweep); an aggregator
// takes the coalesced union of the extents its partners named by merging
// their header lists pairwise (extentUnion), gives each extent a buffer, and
// moves every piece between its message and its offset within its extent
// (transfer) — no piece is decoded into a record, sorted, or staged in a
// second buffer — then reads or writes the extents in CBBufferSize chunks
// (issueExtents). All of it works in a scratch bundle that belongs to the
// rank (fileScratch).
package mpiio

import (
	"bytes"
	"cmp"
	"encoding/binary"
	"fmt"
	"math"
	"slices"

	"repro/internal/mpi"
	"repro/internal/obs"
	"repro/internal/pfs"
)

// Hints mirrors the ROMIO info keys the paper's experiments depend on.
type Hints struct {
	// CBBufferSize is the collective buffer size per aggregator
	// (cb_buffer_size); aggregator I/O is issued in chunks of this size.
	CBBufferSize int64
	// CBNodes is the number of aggregator ranks (cb_nodes); 0 means all.
	CBNodes int
	// DSBufferSize is the data sieving buffer (ind_rd_buffer_size).
	DSBufferSize int64
	// DataSieving enables data sieving for independent noncontiguous
	// reads.
	DataSieving bool
	// MinFDSize is the smallest file domain worth giving an aggregator:
	// a collective access spanning S bytes uses at most ceil(S/MinFDSize)
	// aggregators, chosen round-robin by file position so small arrays
	// spread across ranks over successive calls. 0 disables the bound.
	MinFDSize int64
	// CBForce disables ROMIO's automatic collective-buffering decision
	// (romio_cb_write/romio_cb_read = automatic): with the default
	// (false), a collective call whose per-rank file ranges do not
	// interleave falls back to independent access — the cheap path for
	// one-writer-per-region patterns. Setting CBForce always runs the
	// two-phase algorithm (romio_cb_* = enable).
	CBForce bool
	// Retry configures per-request timeout/backoff/retry for the raw
	// file-system requests this layer issues (see RetryPolicy). The zero
	// value disables it: every request uses the plain blocking path.
	Retry RetryPolicy
}

// DefaultHints matches ROMIO's defaults of the era.
func DefaultHints() Hints {
	return Hints{
		CBBufferSize: 4 << 20,
		CBNodes:      0,
		DSBufferSize: 4 << 20,
		DataSieving:  true,
		MinFDSize:    256 << 10,
		CBForce:      false,
	}
}

// normalize clamps nonsensical hint values to usable ones, the way ROMIO
// sanitizes unrecognized info values instead of failing the open. Every
// open path calls it once, so downstream code (sieving chunk loops,
// aggregator selection, retry backoff) can rely on sane hints instead of
// guarding — or panicking — at use: a zero or negative sieve buffer would
// otherwise hang or crash ReadRuns' chunk loop, a negative CBNodes means
// "choose for me" (0), and a negative retry backoff would move the virtual
// clock backwards.
func (h *Hints) normalize() {
	if h.CBBufferSize <= 0 {
		h.CBBufferSize = 4 << 20
	}
	if h.DSBufferSize <= 0 {
		h.DSBufferSize = 4 << 20
	}
	if h.CBNodes < 0 {
		h.CBNodes = 0
	}
	if h.MinFDSize < 0 {
		h.MinFDSize = 0
	}
	if h.Retry.Enabled {
		h.Retry = h.Retry.normalized()
	}
}

// File is a collectively opened MPI-IO file.
type File struct {
	r      *mpi.Rank
	fs     pfs.FileSystem
	f      pfs.File
	client pfs.Client
	hints  Hints
	// reqs numbers this handle's raw device requests; together with the
	// rank it identifies a request for deterministic retry jitter.
	reqs int64

	// Scratch reused across blocking calls so the two-phase hot path stops
	// allocating per call; it comes from the rank's free list, since files
	// are opened and closed every dump cycle. Everything in it is recycled at
	// the next blocking call on this handle, so only blocking operations may
	// use it: a two-phase Begin takes its own bundle from the same list and
	// keeps it until its Wait (see twoPhaseScratch), which is what lets any
	// number of Begins stay outstanding across other operations on the
	// handle.
	*fileScratch
}

// fileScratch is the recycled scratch bundle behind a File, and behind every
// outstanding two-phase Begin. Open takes one from its rank's free list
// (mpi.Rank.Scratch) and Close returns it (nil afterwards, so use-after-close
// fails loudly); a Begin takes one and its Wait returns it. The grown buffers
// then amortize across every handle the rank ever opens, and stay sized for
// that rank's share of the work. The list belongs to the rank and dies with
// its world: nothing is shared between worlds on concurrent engines, no
// garbage collection empties it mid-run, and after a run every bundle ever
// made is on some rank's list — a count, not a hope.
type fileScratch struct {
	scratch arena[byte]  // wire messages and the aggregator's extent buffers
	i64s    arena[int64] // sieving offsets, reply expectations, the merge tree's lists
	dsBuf   []byte       // ReadRuns sieving buffer (cap DSBufferSize)
	spans   []span       // accessRange's non-empty extents, sorted for the interleaving check
	lent    pfs.Lend     // a lend read's request and the pieces it was lent

	// The two-phase exchange, one slot per rank each, cleared at every entry
	// (a previous collective had other partners). What a rank received must
	// outlive the I/O phase — until Wait, when behind — so the two receiving
	// sides of a read never share a holder.
	send     [][]byte // this rank's messages: pieces (write) or requests (read)
	recvd    [][]byte // what the aggregator heard: pieces to place, or requests to answer
	replies  [][]byte // read: the aggregator's answers
	got      [][]byte // read: the answers this rank received
	parts    [][]byte // read into a buffer of its own: the answers' payloads, in buffer order
	sendTo   []int    // two-phase partner lists (see partners)
	recvFrom []int

	// The aggregator's side of the I/O phase, rebuilt by extentUnion and
	// allocExtents whenever this rank is one; nobody else looks.
	extents []mpi.Run // coalesced union of every extent named in recvd
	extData [][]byte  // extData[i] holds the bytes of extents[i], in scratch
}

// takeScratch pops a bundle off r's free list, or makes the rank a new one.
func takeScratch(r *mpi.Rank) *fileScratch {
	free := r.Scratch()
	n := len(*free)
	if n == 0 {
		return new(fileScratch)
	}
	sc := (*free)[n-1].(*fileScratch)
	*free = (*free)[:n-1]
	return sc
}

// putScratch returns a bundle nothing refers to any more to r's free list.
func putScratch(r *mpi.Rank, sc *fileScratch) { *r.Scratch() = append(*r.Scratch(), sc) }

// arena is a grow-only scratch allocator for the collective I/O paths: alloc
// returns an UNINITIALIZED slice that the caller fully overwrites, and reset
// recycles the whole block at the next two-phase entry on the same bundle.
// Allocations are only valid until that reset — safe because every wire
// message and collective buffer dies at the operation's trailing barrier,
// and the bundle is not reused before it (twoPhaseScratch). The bundle has
// one of bytes and one of int64s, for bookkeeping that dies with the call.
type arena[T any] struct {
	buf  []T
	off  int
	past int // handed out since reset from blocks since abandoned
}

func (a *arena[T]) reset() { a.off, a.past = 0, 0 }

// reserve makes sure the next n elements fit without growing again. A fresh
// block (outstanding slices keep the old one alive; the zeroing cost of make
// is paid per growth, not per call) is sized for everything this operation
// has needed so far, n and a quarter more, so that the next operation of the
// same shape fits whole — an aggregator that knows what its I/O phase will
// take reserves it once instead of outgrowing two blocks on the way.
func (a *arena[T]) reserve(n int) {
	if a.off+n <= len(a.buf) {
		return
	}
	a.past += a.off
	c := a.past + n
	a.buf = make([]T, max(c+c/4, 1<<12))
	a.off = 0
}

func (a *arena[T]) alloc(n int) []T {
	a.reserve(n)
	s := a.buf[a.off : a.off+n : a.off+n]
	a.off += n
	return s
}

// Mode selects open semantics.
type Mode int

// Open modes.
const (
	ModeCreate Mode = iota // create/truncate (MPI_MODE_CREATE|WRONLY)
	ModeRead               // existing file (MPI_MODE_RDONLY)
)

// Open collectively opens name on fs from every rank of r's communicator.
// Like MPI_File_open it synchronizes the participants: rank 0 performs the
// create, everyone else opens after it.
func Open(r *mpi.Rank, fs pfs.FileSystem, name string, mode Mode, hints Hints) (*File, error) {
	hints.normalize()
	client := pfs.Client{Proc: r.Proc(), Node: r.Node()}
	defer obs.Begin(r.Proc(), obs.LayerMPIIO, "open").Attr("file", name).End()
	var f pfs.File
	var err error
	if mode == ModeCreate {
		if r.Rank() == 0 {
			f, err = fs.Create(client, name)
		}
		r.Barrier()
		if r.Rank() != 0 {
			f, err = fs.Open(client, name)
		}
	} else {
		f, err = fs.Open(client, name)
		r.Barrier()
	}
	if err != nil {
		return nil, fmt.Errorf("mpiio: open %q: %w", name, err)
	}
	recordHints(r, name, hints)
	return &File{r: r, fs: fs, f: f, client: client, hints: hints,
		fileScratch: takeScratch(r)}, nil
}

// OpenIndependent opens name from a single rank without collective
// synchronization (used for one-file-per-process output).
func OpenIndependent(r *mpi.Rank, fs pfs.FileSystem, name string, mode Mode, hints Hints) (*File, error) {
	hints.normalize()
	client := pfs.Client{Proc: r.Proc(), Node: r.Node()}
	defer obs.Begin(r.Proc(), obs.LayerMPIIO, "open_indep").Attr("file", name).End()
	var f pfs.File
	var err error
	if mode == ModeCreate {
		f, err = fs.Create(client, name)
	} else {
		f, err = fs.Open(client, name)
	}
	if err != nil {
		return nil, fmt.Errorf("mpiio: open %q: %w", name, err)
	}
	recordHints(r, name, hints)
	return &File{r: r, fs: fs, f: f, client: client, hints: hints,
		fileScratch: takeScratch(r)}, nil
}

// recordHints exposes the normalized hint set to the tracer, giving the
// diagnosis layer the configuration context behind the run's counters.
func recordHints(r *mpi.Rank, name string, h Hints) {
	obs.RecordHints(r.Proc(), obs.HintsRecord{
		File:             name,
		CBNodes:          h.CBNodes,
		CBBufferSize:     h.CBBufferSize,
		DSBufferSize:     h.DSBufferSize,
		DataSieving:      h.DataSieving,
		CBForce:          h.CBForce,
		RetryEnabled:     h.Retry.Enabled,
		RetryMaxAttempts: h.Retry.MaxAttempts,
	})
}

// Rank returns the owning rank handle.
func (f *File) Rank() *mpi.Rank { return f.r }

// Size returns the file size visible to this rank.
func (f *File) Size() int64 { return f.f.Size(f.client) }

// Close releases the handle. For collectively opened files call it from
// every rank; it does not synchronize (matching MPI semantics, where the
// barrier is optional).
func (f *File) Close() {
	f.f.Close(f.client)
	if f.fileScratch != nil {
		putScratch(f.r, f.fileScratch)
		f.fileScratch = nil
	}
}

// WriteAt writes a contiguous buffer at an explicit offset (independent).
func (f *File) WriteAt(data []byte, off int64) { f.IssueWriteAt(false, data, off) }

// IssueWriteAt is WriteAt in either issue mode (see issuer): blocking, it
// returns nil once the write is on the device; behind, it returns the
// handle of a write charged at issue and settled at Wait. On file systems
// without write-behind support a behind write degrades to a blocking one
// whose handle completes immediately.
func (f *File) IssueWriteAt(behind bool, data []byte, off int64) *Pending {
	is := f.issuer(behind)
	sp := obs.Begin(f.client.Proc, obs.LayerMPIIO, pick(behind, "write_indep", "iwrite_indep")).Bytes(int64(len(data)))
	is.write(data, off)
	sp.End()
	return is.pending("iwrite_wait")
}

// ReadAt reads a contiguous extent at an explicit offset (independent).
func (f *File) ReadAt(buf []byte, off int64) { f.IssueReadAt(false, buf, off) }

// IssueReadAt is ReadAt in either issue mode. The store holds real bytes,
// so a behind read fills buf at issue; buf must simply not be consumed
// before Wait settles the clock.
func (f *File) IssueReadAt(behind bool, buf []byte, off int64) *Pending {
	is := f.issuer(behind)
	sp := obs.Begin(f.client.Proc, obs.LayerMPIIO, pick(behind, "read_indep", "iread_indep")).Bytes(int64(len(buf)))
	is.read(buf, off)
	sp.End()
	return is.pending("iread_wait")
}

// IssueLendAt is IssueReadAt for a reader that brings no buffer: the store
// lends the file's bytes [off, off+n), read-only (pfs.Lend). The slice
// holding the pieces is the handle's, good until its next call; behind, the
// pieces are known at issue and must not be consumed before Wait.
func (f *File) IssueLendAt(behind bool, n, off int64) ([][]byte, *Pending) {
	return f.lend(behind, pick(behind, "read_indep", "iread_indep"), n, off)
}

// IssueLendRuns is IssueReadRuns, lending as IssueLendAt does, over a view
// of at most one run: a contiguous selection. It panics on more.
func (f *File) IssueLendRuns(behind bool, runs []mpi.Run) ([][]byte, *Pending) {
	switch {
	case len(runs) > 1:
		panic("mpiio: a lend read takes at most one run")
	case len(runs) == 0:
		return nil, f.IssueReadRuns(behind, nil, nil) // reads nothing, exactly as that does
	}
	return f.lend(behind, pick(behind, "read_runs", "iread_runs"), runs[0].Len, runs[0].Off)
}

// lend issues one lend read of n bytes at off under the span op.
func (f *File) lend(behind bool, op string, n, off int64) ([][]byte, *Pending) {
	is := f.issuer(behind)
	sp := obs.Begin(f.client.Proc, obs.LayerMPIIO, op).Bytes(n)
	f.lent.N, f.lent.Pieces = n, f.lent.Pieces[:0]
	is.do(pfs.Req{Lend: &f.lent, Off: off})
	sp.End()
	return f.lent.Pieces, is.pending("iread_wait")
}

// WriteRuns performs an independent noncontiguous write described by the
// flattened file view `runs`; data supplies the bytes in run order. ROMIO
// would optionally use read-modify-write data sieving here; we issue one
// write per run, which is what its default does for writes without
// file-system locking support.
func (f *File) WriteRuns(runs []mpi.Run, data []byte) { f.IssueWriteRuns(false, runs, data) }

// IssueWriteRuns is WriteRuns in either issue mode; a behind handle
// completes when the slowest run's device work finishes.
func (f *File) IssueWriteRuns(behind bool, runs []mpi.Run, data []byte) *Pending {
	if mpi.TotalLen(runs) != int64(len(data)) {
		panic(fmt.Sprintf("mpiio: WriteRuns data %d bytes for %d bytes of runs",
			len(data), mpi.TotalLen(runs)))
	}
	is := f.issuer(behind)
	sp := obs.Begin(f.client.Proc, obs.LayerMPIIO, pick(behind, "write_runs", "iwrite_runs")).Bytes(int64(len(data)))
	defer sp.End()
	is.writeRuns(runs, data)
	return is.pending("iwrite_wait")
}

// ReadRuns performs an independent noncontiguous read of the flattened
// view `runs` into buf (in run order). With hints.DataSieving it reads the
// covering extent in DSBufferSize chunks and extracts the requested pieces
// — few large requests instead of many small ones.
func (f *File) ReadRuns(runs []mpi.Run, buf []byte) { f.IssueReadRuns(false, runs, buf) }

// IssueReadRuns is ReadRuns in either issue mode. Only the blocking mode
// sieves: sieving chains each chunk's extraction pass behind its read, so a
// behind read issues one request per run instead (all charged at issue) and
// never transfers hole bytes.
func (f *File) IssueReadRuns(behind bool, runs []mpi.Run, buf []byte) *Pending {
	total := mpi.TotalLen(runs)
	if total != int64(len(buf)) {
		panic(fmt.Sprintf("mpiio: ReadRuns buf %d bytes for %d bytes of runs", len(buf), total))
	}
	if len(runs) == 0 && !behind {
		return nil // nothing to read, and no handle owed: not even a span
	}
	is := f.issuer(behind)
	if behind || len(runs) == 1 || !f.hints.DataSieving {
		sp := obs.Begin(f.client.Proc, obs.LayerMPIIO, pick(behind, "read_runs", "iread_runs")).Bytes(total)
		defer sp.End()
		is.readRuns(runs, buf)
		return is.pending("iread_wait")
	}
	// Data sieving: read [first, last) in chunks, extract pieces.
	sp := obs.Begin(f.client.Proc, obs.LayerMPIIO, "read_sieve").Bytes(total).
		Attr("sieving", "true")
	defer sp.End()
	lo := runs[0].Off
	hi := runs[len(runs)-1].Off + runs[len(runs)-1].Len
	if int64(cap(f.dsBuf)) < f.hints.DSBufferSize {
		f.dsBuf = make([]byte, f.hints.DSBufferSize)
	}
	chunk := f.dsBuf[:f.hints.DSBufferSize]
	f.i64s.reset()
	bufOff := bufPrefixInto(f.i64s.alloc(len(runs)), runs)
	for base := lo; base < hi; base += f.hints.DSBufferSize {
		n := f.hints.DSBufferSize
		if base+n > hi {
			n = hi - base
		}
		is.read(chunk[:n], base)
		// Extract the overlap of every run with [base, base+n).
		for i, run := range runs {
			s := max64(run.Off, base)
			e := min64(run.Off+run.Len, base+n)
			if s >= e {
				continue
			}
			copy(buf[bufOff[i]+(s-run.Off):bufOff[i]+(e-run.Off)], chunk[s-base:e-base])
		}
		f.r.CopyCost(n) // extraction pass over the sieving buffer
	}
	return nil
}

// --- Two-phase collective I/O ---

// domain returns aggregator a's file domain given the global access range.
func domain(lo, hi int64, naggs, a int) (int64, int64) {
	span := hi - lo
	per := (span + int64(naggs) - 1) / int64(naggs)
	dLo := lo + int64(a)*per
	dHi := dLo + per
	if dLo > hi {
		dLo = hi
	}
	if dHi > hi {
		dHi = hi
	}
	return dLo, dHi
}

func (f *File) naggs() int {
	n := f.hints.CBNodes
	if n <= 0 || n > f.r.Size() {
		n = f.r.Size()
	}
	return n
}

// aggregators picks how many aggregators serve the access range [lo, hi)
// and the rotation that maps aggregator index a to rank
// (rot + a) % size. Small ranges use few aggregators (MinFDSize), rotated
// by file position so successive small arrays use different ranks.
func (f *File) aggregators(lo, hi int64) (naggs, rot int) {
	naggs = f.naggs()
	if f.hints.MinFDSize > 0 {
		maxAggs := int((hi - lo + f.hints.MinFDSize - 1) / f.hints.MinFDSize)
		if maxAggs < 1 {
			maxAggs = 1
		}
		if maxAggs < naggs {
			naggs = maxAggs
		}
		rot = int((lo / f.hints.MinFDSize) % int64(f.r.Size()))
	}
	return naggs, rot
}

// aggRank maps aggregator index a to its rank.
func (f *File) aggRank(a, rot int) int { return (rot + a) % f.r.Size() }

// myAggIndex returns this rank's aggregator index, or -1 if it is not an
// aggregator for this access.
func (f *File) myAggIndex(naggs, rot int) int {
	a := (f.r.Rank() - rot + f.r.Size()) % f.r.Size()
	if a < naggs {
		return a
	}
	return -1
}

// span is one rank's file extent in accessRange's interleaving check.
type span struct{ lo, hi int64 }

// accessRange gathers every rank's file extent — one (lo, hi) block per
// rank, in one log-round allgather — and decides, as ROMIO's automatic
// collective-buffering heuristic does, whether the accesses interleave. It
// returns the global [lo, hi), whether two-phase I/O is worthwhile (extents
// of different ranks overlap) and the gathered extents themselves: rank s
// accesses [ext[2s], ext[2s+1]), which is what partners derives the
// exchange's send and receive lists from. Ranks with no data report an
// inverted extent and are ignored for the interleaving check.
func (f *File) accessRange(runs []mpi.Run) (lo, hi int64, interleaved bool, ext []int64) {
	my := [2]int64{math.MaxInt64, 0}
	if len(runs) > 0 {
		my[0] = runs[0].Off
		my[1] = runs[len(runs)-1].Off + runs[len(runs)-1].Len
	}
	ext = f.r.AllgatherInt64s(my[:])
	lo, hi = int64(math.MaxInt64), 0
	spans := f.spans[:0] // dead on return, so a behind operation may borrow the handle's too
	for i := 0; i < len(ext); i += 2 {
		sLo, sHi := ext[i], ext[i+1]
		if sHi <= sLo {
			continue // empty participant
		}
		if sLo < lo {
			lo = sLo
		}
		if sHi > hi {
			hi = sHi
		}
		spans = append(spans, span{sLo, sHi})
	}
	slices.SortFunc(spans, func(a, b span) int {
		switch {
		case a.lo < b.lo:
			return -1
		case a.lo > b.lo:
			return 1
		}
		return 0
	})
	for i := 1; i < len(spans); i++ {
		if spans[i].lo < spans[i-1].hi {
			interleaved = true
			break
		}
	}
	f.spans = spans
	return lo, hi, interleaved, ext
}

// partners derives the two sides of the communication phase from what
// accessRange left on every rank, appending to sendTo the aggregator ranks
// this rank ships pieces (or read requests) to and to recvFrom the ranks
// this rank, as an aggregator, hears from — both ascending. The rule is one
// predicate evaluated identically on both sides: rank s talks to aggregator
// a exactly when s's extent [ext[2s], ext[2s+1]) intersects domain(a). So s
// is in a's recvFrom precisely when a is in s's sendTo, and the exchange
// needs no count round. The predicate looks at extents, not runs: a rank
// whose runs leave a hole over a whole domain still sends that aggregator
// one (empty) message, because the aggregator cannot know about the hole.
func (f *File) partners(sendTo, recvFrom []int, ext []int64, lo, hi int64, naggs, rot int) ([]int, []int) {
	size, me := f.r.Size(), f.r.Rank()
	touches := func(s int, dLo, dHi int64) bool {
		return max64(ext[2*s], dLo) < min64(ext[2*s+1], dHi)
	}
	for d := 0; d < size; d++ {
		if a := (d - rot + size) % size; a < naggs {
			if dLo, dHi := domain(lo, hi, naggs, a); touches(me, dLo, dHi) {
				sendTo = append(sendTo, d)
			}
		}
	}
	if a := f.myAggIndex(naggs, rot); a >= 0 {
		dLo, dHi := domain(lo, hi, naggs, a)
		for s := 0; s < size; s++ {
			if touches(s, dLo, dHi) {
				recvFrom = append(recvFrom, s)
			}
		}
	}
	return sendTo, recvFrom
}

// A piece message is the wire format of both phases: u32 count, count x (i64
// off, i64 len) with ascending offsets, then — except in a read request — the
// pieces' bytes back to back, in header order. A reply is its request with
// the bytes appended.

// pieceCount returns the number of pieces a message names; a nil message (a
// partner whose runs skip the domain) names none.
func pieceCount(msg []byte) int {
	if len(msg) < 4 {
		return 0
	}
	return int(binary.LittleEndian.Uint32(msg))
}

// pieceAt decodes the header at byte position hp of a piece message.
func pieceAt(msg []byte, hp int) (off, n int64) {
	return int64(binary.LittleEndian.Uint64(msg[hp:])), int64(binary.LittleEndian.Uint64(msg[hp+8:]))
}

// sweep cuts a rank's runs at the file-domain boundaries in one pass: runs
// and domains both ascend, so each domain resumes where the last one stopped
// — O(naggs + runs) for the whole communication phase. The pieces come out
// in file order, which is buffer order (the buffer holds the runs back to
// back): the pieces of one domain are one contiguous stretch of the buffer,
// starting where the previous domain's ended.
type sweep struct {
	runs    []mpi.Run
	i       int   // first run that can reach into the next domain
	seen    int   // runs checked for order so far
	prevEnd int64 // where run seen-1 ends
	pos     int64 // buffer position of the next piece
}

// next builds, in arena scratch, the piece message for domain [dLo, dHi) —
// with the pieces' bytes out of data, or header-only when data is nil — and
// returns it with its piece count and byte total; nil when no run reaches
// into the domain. Domains must come in ascending order. Every run is
// visited once, and that is where the view contract is enforced: a run that
// starts before its predecessor ends would be cut wrongly by everything
// downstream (accessRange trusts runs[0] and the last run for the extent).
func (sw *sweep) next(a *arena[byte], dLo, dHi int64, data []byte) (msg []byte, count int, bytes int64) {
	first, j := sw.i, sw.i
	for ; j < len(sw.runs) && sw.runs[j].Off < dHi; j++ {
		run := sw.runs[j]
		if j == sw.seen {
			if run.Off < sw.prevEnd || run.Len < 0 {
				panic("mpiio: runs not ascending")
			}
			sw.prevEnd, sw.seen = run.Off+run.Len, j+1
		}
		if s, e := max64(run.Off, dLo), min64(run.Off+run.Len, dHi); s < e {
			count++
			bytes += e - s
		}
	}
	sw.i = j
	if j > first && sw.runs[j-1].Off+sw.runs[j-1].Len > dHi {
		sw.i = j - 1 // the last run goes on into the next domain
	}
	if count == 0 {
		return nil, 0, 0
	}
	hdr := 4 + 16*count
	if data == nil {
		msg = a.alloc(hdr)
	} else {
		msg = a.alloc(hdr + int(bytes))
		copy(msg[hdr:], data[sw.pos:sw.pos+bytes])
	}
	binary.LittleEndian.PutUint32(msg, uint32(count))
	p := 4
	for _, run := range sw.runs[first:j] {
		if s, e := max64(run.Off, dLo), min64(run.Off+run.Len, dHi); s < e {
			binary.LittleEndian.PutUint64(msg[p:], uint64(s))
			binary.LittleEndian.PutUint64(msg[p+8:], uint64(e-s))
			p += 16
		}
	}
	sw.pos += bytes
	return msg, count, bytes
}

// finish checks, after the last domain, that every byte of the view fell
// into one: the domains tile the access range, so a byte left over belongs
// to a run outside the extent its rank reported — the runs were not
// ascending.
func (sw *sweep) finish(total int64) {
	if sw.pos != total {
		panic("mpiio: runs not ascending")
	}
}

// bufPrefixInto fills bufOff[i] with the buffer position of run i (runs are
// packed back to back in run order).
func bufPrefixInto(bufOff []int64, runs []mpi.Run) []int64 {
	var acc int64
	for i, run := range runs {
		bufOff[i] = acc
		acc += run.Len
	}
	return bufOff
}

// cleared returns s with n nil entries, reusing its backing array.
func cleared(s [][]byte, n int) [][]byte {
	if cap(s) < n {
		return make([][]byte, n)
	}
	s = s[:n]
	clear(s)
	return s
}

// twoPhaseScratch returns the scratch bundle a two-phase operation works
// in, reset for a new message set. A blocking operation borrows the
// handle's: its trailing barrier runs before it returns, so everything in
// the bundle is dead by the next call. A behind operation returns from
// Begin with its barrier still to come — peers may yet be reading the wire
// messages it built (the exchange passes payloads by reference), its own
// reply phase is outstanding, and the caller is free to start any other
// operation on the handle meanwhile — so it takes a bundle of its own from
// the rank's free list and gives it back only after its Wait's barrier.
func (f *File) twoPhaseScratch(behind bool) *fileScratch {
	sc := f.fileScratch
	if behind {
		sc = takeScratch(f.r)
	}
	sc.scratch.reset()
	sc.i64s.reset()
	size := f.r.Size()
	sc.send, sc.recvd = cleared(sc.send, size), cleared(sc.recvd, size)
	sc.replies, sc.got = cleared(sc.replies, size), cleared(sc.got, size)
	return sc
}

// WriteAtAll is a collective write: every rank of the communicator must
// call it. Each rank contributes the file extents `runs` with data in run
// order. The two-phase strategy redistributes the data to aggregators
// (communication phase), which then issue large contiguous writes over their
// file domains (I/O phase).
//
// Two contracts, both enforced on the two-phase path: a rank's runs ascend
// and do not overlap each other (panic "mpiio: runs not ascending"), and no
// two ranks write the same byte (panic "mpiio: overlapping collective write
// at [off, off+n)" on the aggregator that received both).
func (f *File) WriteAtAll(runs []mpi.Run, data []byte) { f.IssueWriteAtAll(false, runs, data) }

// IssueWriteAtAll is WriteAtAll in either issue mode. Behind, it is the
// split-collective MPI_File_write_all_begin: the offset exchange and the
// communication phase run now (they need every participant on the CPU
// anyway), the aggregators issue their coalesced file writes write-behind,
// and the call returns as soon as the exchange is done. The caller may
// compute — or start other operations on this handle — until the returned
// handle's Wait (MPI_File_write_all_end), which every rank must call, in
// the same order across ranks: it settles the clock against the deferred
// completions and, on the two-phase path, runs the trailing barrier.
func (f *File) IssueWriteAtAll(behind bool, runs []mpi.Run, data []byte) *Pending {
	if mpi.TotalLen(runs) != int64(len(data)) {
		panic("mpiio: WriteAtAll data/runs length mismatch")
	}
	proc := f.client.Proc
	all := obs.Begin(proc, obs.LayerMPIIO, pick(behind, "write_all", "write_all_begin")).Bytes(int64(len(data)))
	defer all.End()
	off := obs.Begin(proc, obs.LayerMPIIO, "offsets")
	lo, hi, interleaved, ext := f.accessRange(runs)
	off.End()
	if hi <= lo {
		f.r.Barrier()
		is := f.issuer(behind)
		return is.pending("write_all_end")
	}
	if !interleaved && !f.hints.CBForce {
		// romio_cb_write=automatic: disjoint extents gain nothing from
		// aggregation — write independently. The offset exchange above
		// already synchronized entry; like ROMIO, there is no trailing
		// barrier in either mode, so different ranks' writes pipeline
		// across calls.
		all.Attr("path", "independent")
		if !behind {
			f.WriteRuns(runs, data)
			return nil
		}
		is := f.issuer(behind)
		is.writeRuns(runs, data)
		return is.pending("write_all_end")
	}
	all.Attr("path", "two-phase")
	sc := f.twoPhaseScratch(behind)
	naggs, rot := f.aggregators(lo, hi)

	// Communication phase: ship each aggregator its domain's pieces.
	sw := sweep{runs: runs}
	for a := 0; a < naggs; a++ {
		dLo, dHi := domain(lo, hi, naggs, a)
		sc.send[f.aggRank(a, rot)], _, _ = sw.next(&sc.scratch, dLo, dHi, data)
	}
	sw.finish(int64(len(data)))
	// Scratch exchange: the messages live in sc.scratch, which is not reset
	// before this operation's trailing barrier — by which time every
	// aggregator has consumed its pieces.
	exch := obs.Begin(proc, obs.LayerMPIIO, "exchange")
	sc.sendTo, sc.recvFrom = f.partners(sc.sendTo[:0], sc.recvFrom[:0], ext, lo, hi, naggs, rot)
	f.r.ExchangeScratch(sc.recvd, sc.send, sc.sendTo, sc.recvFrom)
	exch.End()

	// I/O phase (aggregators only): place the pieces in their extents, write
	// the extents in CBBufferSize chunks.
	is := f.issuer(behind)
	if f.myAggIndex(naggs, rot) >= 0 {
		iop := obs.Begin(proc, obs.LayerMPIIO, "io")
		if behind {
			iop.Attr("deferred", "1")
		}
		iop.Bytes(f.writeReceived(&is, sc)).End()
	}
	// Keep the participants in lockstep (ROMIO's two-phase iterations
	// synchronize implicitly; a trailing barrier models that): at call end
	// when blocking, inside Wait once the clock has settled when behind.
	if !behind {
		f.r.Barrier()
		return nil
	}
	p := is.pending("write_all_end")
	p.tail = func() {
		f.r.Barrier()
		putScratch(f.r, sc)
	}
	return p
}

// extentUnion leaves in sc.extents the coalesced union of the extents the
// piece messages name — what the aggregator reads or writes: extents that
// touch or overlap become one. The union of a set of intervals does not
// depend on the order they are visited in, so no piece is decoded or sorted:
// each source's ascending header list is coalesced where it lies, then
// neighbouring lists are merged pairwise, coalescing on the way up, between
// two buffers. Neighbouring ranks hold neighbouring blocks of a
// (Block,Block,Block) view, so their rows join at the first levels and the
// lists shrink many times over before the merges get wide: O(n) then,
// O(n log k) sequential reads and writes for k lists that never join.
func (sc *fileScratch) extentUnion(msgs [][]byte) {
	sc.extents = sc.extents[:0]
	n := 0
	for _, msg := range msgs {
		n += pieceCount(msg)
	}
	if n == 0 {
		return
	}
	// Lists are (start, end) pairs, back to back in cur; list i of the k
	// ends at cur[ends[i]].
	sc.i64s.reserve(4*n + len(msgs))
	cur, next, ends := sc.i64s.alloc(2*n), sc.i64s.alloc(2*n), sc.i64s.alloc(len(msgs))
	w, k := 0, 0
	for _, msg := range msgs {
		count := pieceCount(msg)
		if count == 0 {
			continue
		}
		s, e := pieceAt(msg, 4)
		e += s
		for hp := 20; hp < 4+16*count; hp += 16 {
			off, end := pieceAt(msg, hp)
			end += off
			switch {
			case off < s:
				panic("mpiio: piece message not ascending")
			case off > e:
				cur[w], cur[w+1] = s, e
				w += 2
				s, e = off, end
			case end > e:
				e = end
			}
		}
		cur[w], cur[w+1] = s, e
		w += 2
		ends[k] = int64(w)
		k++
	}
	for ; k > 1; k = (k + 1) / 2 {
		w, lo := 0, 0
		for p := 0; p < k; p += 2 {
			mid, hi := int(ends[p]), int(ends[p])
			if p+1 < k {
				hi = int(ends[p+1])
			}
			w = mergeUnion(next, w, cur[lo:mid], cur[mid:hi]) // an odd list out merges with nothing
			ends[p/2] = int64(w)
			lo = hi
		}
		cur, next = next, cur
	}
	for i := 0; i < int(ends[0]); i += 2 {
		sc.extents = append(sc.extents, mpi.Run{Off: cur[i], Len: cur[i+1] - cur[i]})
	}
}

// mergeUnion merges two ascending lists of disjoint, non-touching (start,
// end) pairs into one such list at dst[w:] and returns the position after
// it. a is not empty.
func mergeUnion(dst []int64, w int, a, b []int64) int {
	i, j := 0, 0
	var s, e int64
	if len(b) == 0 || a[0] <= b[0] {
		s, e, i = a[0], a[1], 2
	} else {
		s, e, j = b[0], b[1], 2
	}
	for i < len(a) && j < len(b) {
		var ns, ne int64
		if a[i] <= b[j] {
			ns, ne, i = a[i], a[i+1], i+2
		} else {
			ns, ne, j = b[j], b[j+1], j+2
		}
		switch {
		case ns > e:
			dst[w], dst[w+1] = s, e
			w += 2
			s, e = ns, ne
		case ne > e:
			e = ne
		}
	}
	// One list is left, and it is coalesced already: once one of its extents
	// stands clear of the open one, so do all the rest.
	rest := a[i:]
	if j < len(b) {
		rest = b[j:]
	}
	for len(rest) > 0 && rest[0] <= e {
		e = max64(e, rest[1])
		rest = rest[2:]
	}
	dst[w], dst[w+1] = s, e
	w += 2
	return w + copy(dst[w:], rest)
}

// allocExtents gives every extent its buffer in arena scratch, uninitialized:
// a read fills it whole, and a write's pieces cover it exactly. The arena
// makes room for them and for the `more` bytes the caller will want after
// them in one step.
func (sc *fileScratch) allocExtents(more int64) {
	sc.scratch.reserve(int(mpi.TotalLen(sc.extents) + more))
	sc.extData = sc.extData[:0]
	for _, ext := range sc.extents {
		sc.extData = append(sc.extData, sc.scratch.alloc(int(ext.Len)))
	}
}

// issueExtents sends every extent to the device, one request per
// CBBufferSize chunk from the extent's start. A written chunk is cloned
// first: pfs keeps the buffer it is given (DESIGN.md §13), and the extents
// lie in the rank's arena, which the next collective overwrites.
func (sc *fileScratch) issueExtents(is *issuer, write bool) {
	cb := is.f.hints.CBBufferSize
	for i, ext := range sc.extents {
		for base := int64(0); base < ext.Len; base += cb {
			n := min64(cb, ext.Len-base)
			chunk := sc.extData[i][base : base+n]
			if write {
				chunk = bytes.Clone(chunk)
			}
			is.do(pfs.Req{Write: write, Buf: chunk, Off: ext.Off + base})
		}
	}
}

// transfer moves the pieces one message names between the extent buffers and
// payload, where they lie back to back in header order: into the extents
// when place is set (a write aggregator assembling what it received), out of
// them otherwise (a read aggregator filling a reply). Headers and extents
// both ascend, so the containing extent is a cursor that only moves forward.
// It returns the bytes moved.
func (sc *fileScratch) transfer(msg, payload []byte, place bool) int64 {
	ei, dp := 0, int64(0)
	for hp, end := 4, 4+16*pieceCount(msg); hp < end; hp += 16 {
		off, n := pieceAt(msg, hp)
		for ei < len(sc.extents) && off >= sc.extents[ei].Off+sc.extents[ei].Len {
			ei++
		}
		if ei == len(sc.extents) || off < sc.extents[ei].Off || off+n > sc.extents[ei].Off+sc.extents[ei].Len {
			panic("mpiio: piece outside the aggregator's extents")
		}
		at := off - sc.extents[ei].Off
		in := sc.extData[ei][at : at+n]
		if place {
			copy(in, payload[dp:dp+n])
		} else {
			copy(payload[dp:dp+n], in)
		}
		dp += n
	}
	return dp
}

// writeReceived is the aggregator half of a two-phase write's I/O phase:
// the union of the received pieces' extents, every piece copied to its
// offset within its extent — placed, not sorted: the bytes of an extent do
// not depend on the order its pieces arrive in — and the extents written
// out. It returns the bytes assembled.
func (f *File) writeReceived(is *issuer, sc *fileScratch) int64 {
	sc.extentUnion(sc.recvd)
	if len(sc.extents) == 0 {
		return 0
	}
	sc.allocExtents(0)
	var assembled int64
	for _, msg := range sc.recvd {
		if count := pieceCount(msg); count > 0 {
			assembled += sc.transfer(msg, msg[4+16*count:], true)
		}
	}
	// The pieces cover the union; if they add up to more, two of them cover
	// the same byte, and which one the file keeps would be an accident of
	// rank order.
	if assembled != mpi.TotalLen(sc.extents) {
		off, n := overlapIn(sc.recvd)
		panic(fmt.Sprintf("mpiio: overlapping collective write at [%d, %d)", off, off+n))
	}
	f.r.CopyCost(assembled) // pack into the collective buffer
	sc.issueExtents(is, true)
	return assembled
}

// readRequested is the aggregator half of a two-phase read's I/O phase,
// writeReceived run the other way: the union of the requested extents, read
// into their buffers, from which replyAndPlace answers. It returns the bytes
// read.
func (f *File) readRequested(is *issuer, sc *fileScratch) int64 {
	sc.extentUnion(sc.recvd)
	// The replies will repeat the requests' headers and, unless ranks read
	// the same bytes, carry the extents' bytes once more.
	replies := mpi.TotalLen(sc.extents)
	for _, req := range sc.recvd {
		replies += int64(len(req))
	}
	sc.allocExtents(replies)
	sc.issueExtents(is, false)
	return mpi.TotalLen(sc.extents)
}

// overlapIn finds a byte range two of the pieces in msgs both cover, for the
// panic that names it.
func overlapIn(msgs [][]byte) (off, n int64) {
	var all []mpi.Run
	for _, msg := range msgs {
		for hp, end := 4, 4+16*pieceCount(msg); hp < end; hp += 16 {
			o, l := pieceAt(msg, hp)
			all = append(all, mpi.Run{Off: o, Len: l})
		}
	}
	slices.SortFunc(all, func(a, b mpi.Run) int { return cmp.Compare(a.Off, b.Off) })
	var covered int64 // everything before it is covered by the pieces so far
	for _, pc := range all {
		if pc.Off < covered {
			return pc.Off, min64(covered, pc.Off+pc.Len) - pc.Off
		}
		covered = max64(covered, pc.Off+pc.Len)
	}
	return 0, 0
}

// ReadAtAll is the collective read: aggregators read large contiguous
// extents of their file domains and redistribute the pieces to the
// requesting ranks. A rank's runs ascend and do not overlap each other, as
// for WriteAtAll (panic "mpiio: runs not ascending" on the two-phase path);
// different ranks may read the same bytes.
func (f *File) ReadAtAll(runs []mpi.Run, buf []byte) { f.IssueReadAtAll(false, runs, buf) }

// IssueReadAtAll is ReadAtAll in either issue mode. Behind, it is the
// split-collective MPI_File_read_all_begin: the offset exchange and the
// request phase run now, the aggregators issue their coalesced extent
// reads read-behind, and the call returns as soon as the requests are on
// the devices. Everything causally downstream of the data having arrived —
// the scatter out of the collective buffer, the reply exchange, the
// placement into buf, the trailing barrier — runs in the returned handle's
// Wait (MPI_File_read_all_end), which every rank must call, in the same
// order across ranks; buf is valid only after it. On the independent path
// a behind read issues one request per run and does not sieve (see
// IssueReadRuns).
func (f *File) IssueReadAtAll(behind bool, runs []mpi.Run, buf []byte) *Pending {
	if mpi.TotalLen(runs) != int64(len(buf)) {
		panic("mpiio: ReadAtAll buf/runs length mismatch")
	}
	return f.readAtAll(behind, runs, buf, nil)
}

// IssueReadAtAllInto is IssueReadAtAll for a reader that brings no buffer:
// *out receives a new one, valid when buf would be — on the two-phase path
// the replies joined, never zeroed first.
func (f *File) IssueReadAtAllInto(behind bool, runs []mpi.Run, out *[]byte) *Pending {
	return f.readAtAll(behind, runs, nil, out)
}

// readAtAll is the collective read, into buf or, when out is set, into a
// buffer it makes.
func (f *File) readAtAll(behind bool, runs []mpi.Run, buf []byte, out *[]byte) *Pending {
	total := mpi.TotalLen(runs)
	proc := f.client.Proc
	allSp := obs.Begin(proc, obs.LayerMPIIO, pick(behind, "read_all", "read_all_begin")).Bytes(total)
	defer allSp.End()
	offSp := obs.Begin(proc, obs.LayerMPIIO, "offsets")
	lo, hi, interleaved, ext := f.accessRange(runs)
	offSp.End()
	if out != nil && (hi <= lo || !interleaved && !f.hints.CBForce) {
		buf = make([]byte, total)
		*out = buf
	}
	if hi <= lo {
		f.r.Barrier()
		is := f.issuer(behind)
		return is.pending("read_all_end")
	}
	if !interleaved && !f.hints.CBForce {
		// romio_cb_read=automatic: disjoint extents read independently
		// (blocking: with data sieving for noncontiguous views), no
		// trailing barrier in either mode.
		allSp.Attr("path", "independent")
		if !behind {
			f.ReadRuns(runs, buf)
			return nil
		}
		is := f.issuer(behind)
		is.readRuns(runs, buf)
		return is.pending("read_all_end")
	}
	allSp.Attr("path", "two-phase")
	sc := f.twoPhaseScratch(behind)
	naggs, rot := f.aggregators(lo, hi)

	// Request phase: tell each aggregator which extents we need, and
	// remember how many pieces and bytes it owes us.
	wants := sc.i64s.alloc(2 * naggs)
	sw := sweep{runs: runs}
	for a := 0; a < naggs; a++ {
		dLo, dHi := domain(lo, hi, naggs, a)
		req, count, bytes := sw.next(&sc.scratch, dLo, dHi, nil)
		sc.send[f.aggRank(a, rot)], wants[2*a], wants[2*a+1] = req, int64(count), bytes
	}
	sw.finish(total)
	// Scratch exchange: the requests live in sc.scratch, which is not reset
	// before this operation's trailing barrier.
	exch := obs.Begin(proc, obs.LayerMPIIO, "exchange")
	sc.sendTo, sc.recvFrom = f.partners(sc.sendTo[:0], sc.recvFrom[:0], ext, lo, hi, naggs, rot)
	f.r.ExchangeScratch(sc.recvd, sc.send, sc.sendTo, sc.recvFrom)
	exch.End()

	// I/O phase: aggregators read the coalesced union of requested extents.
	// The requests (sc.recvd) and what was read for them (sc.extents,
	// sc.extData) stay in sc for the reply phase.
	is := f.issuer(behind)
	var scatter int64 // the aggregator's copy out of its collective buffer, when that waits for Wait
	if f.myAggIndex(naggs, rot) >= 0 {
		iop := obs.Begin(proc, obs.LayerMPIIO, "io")
		if behind {
			iop.Attr("deferred", "1")
		}
		readBytes := f.readRequested(&is, sc)
		switch {
		case behind:
			// The scatter waits for the data: it is charged in Wait, after
			// the clock has settled, not at issue.
			iop.Bytes(readBytes)
			scatter = readBytes
		case readBytes > 0:
			f.r.CopyCost(readBytes)
		}
		iop.End()
	}
	t := readTail{sc: sc, buf: buf, out: out, wants: wants, naggs: naggs, rot: rot, scatter: scatter}
	if !behind {
		f.replyAndPlace(t)
		return nil
	}
	p := is.pending("read_all_end")
	p.tail = func() {
		f.replyAndPlace(t)
		putScratch(f.r, sc)
	}
	return p
}

// readTail is what a two-phase read still owes once its extent reads are
// issued: the reply phase, over the state the I/O phase left in sc.
type readTail struct {
	sc         *fileScratch
	buf        []byte  // where the pieces land
	out        *[]byte // or, when set, where the joined replies go
	wants      []int64 // per aggregator: the pieces and the bytes requested of it
	naggs, rot int
	scatter    int64 // bytes of collective-buffer scatter still to charge (behind aggregators)
}

// replyAndPlace is the reply phase of a two-phase read: every aggregator
// answers the ranks it heard from out of the extents it read, the pieces
// land in the caller's buffer — or are joined into a new one — and the
// trailing barrier keeps the participants in lockstep (and the scratch alive
// until every peer has copied its reply out).
func (f *File) replyAndPlace(t readTail) {
	sc := t.sc
	if t.scatter > 0 {
		f.r.CopyCost(t.scatter)
	}
	// A reply is the request itself — same headers, same order — with the
	// requested bytes behind it, straight out of the extent buffers.
	for s, req := range sc.recvd {
		count := pieceCount(req)
		if count == 0 {
			continue
		}
		hdr, nb := 4+16*count, int64(0)
		for hp := 4; hp < hdr; hp += 16 {
			_, n := pieceAt(req, hp)
			nb += n
		}
		reply := sc.scratch.alloc(hdr + int(nb))
		copy(reply, req[:hdr])
		sc.transfer(req, reply[hdr:], false)
		sc.replies[s] = reply
	}
	// Replies retrace the request phase: every aggregator answers exactly
	// the ranks it heard from (an empty reply to an empty request).
	exch := obs.Begin(f.client.Proc, obs.LayerMPIIO, "exchange")
	f.r.ExchangeScratch(sc.got, sc.replies, sc.recvFrom, sc.sendTo)
	exch.End()

	// Place the replies into buf. The requests went out in file order, which
	// is buffer order (see sweep), so aggregator after aggregator each
	// reply's bytes are the next stretch of buf.
	var pos int64
	parts := sc.parts[:0]
	for a := 0; a < t.naggs; a++ {
		count, nb := int(t.wants[2*a]), t.wants[2*a+1]
		if count == 0 {
			continue
		}
		reply := sc.got[f.aggRank(a, t.rot)]
		if have := pieceCount(reply); have != count {
			panic(fmt.Sprintf("mpiio: aggregator %d returned %d pieces, want %d", a, have, count))
		}
		if have := int64(len(reply) - 4 - 16*count); have != nb {
			panic(fmt.Sprintf("mpiio: aggregator %d returned %d bytes, want %d", a, have, nb))
		}
		if t.out != nil {
			parts = append(parts, reply[4+16*count:])
		} else {
			copy(t.buf[pos:pos+nb], reply[4+16*count:])
		}
		pos += nb
	}
	if t.out != nil {
		// Join before the barrier: the replies lie in the aggregators'
		// scratch.
		*t.out = bytes.Join(parts, nil)
		clear(parts)
	}
	sc.parts = parts
	f.r.Barrier()
}

func max64(a, b int64) int64 {
	if a > b {
		return a
	}
	return b
}

func min64(a, b int64) int64 {
	if a < b {
		return a
	}
	return b
}
