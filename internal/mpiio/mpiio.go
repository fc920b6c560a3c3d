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
package mpiio

import (
	"encoding/binary"
	"fmt"
	"math"
	"slices"
	"sync"

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
	// allocating per call; pooled across handles, since files are opened
	// and closed every dump cycle. Everything in it is recycled at the next
	// blocking call on this handle, so only blocking operations may use it:
	// a two-phase Begin takes its own bundle from the same pool and keeps
	// it until its Wait (see twoPhaseScratch), which is what lets any
	// number of Begins stay outstanding across other operations on the
	// handle.
	*fileScratch
}

// fileScratch is the recycled scratch bundle behind a File, and behind every
// outstanding two-phase Begin. Open takes one from a pool and Close returns
// it (nil afterwards, so use-after-close fails loudly); the grown buffers
// then amortize across every handle of the process instead of being rebuilt
// per open.
type fileScratch struct {
	scratch   arena    // wire messages + aggregator collective buffers
	i64s      arena64  // run bookkeeping that does not escape the call
	cbBuf     []byte   // writeCoalesced assembly buffer (cap CBBufferSize)
	dsBuf     []byte   // ReadRuns sieving buffer (cap DSBufferSize)
	pieces    []piece  // two-phase write assembly list
	rpieces   []rpiece // two-phase read aggregator request list
	extents   []mpi.Run
	extData   [][]byte
	order     []int
	srcCounts []int
	sendTo    []int // two-phase partner lists (see partners)
	recvFrom  []int
}

var scratchPool = sync.Pool{New: func() any { return new(fileScratch) }}

// arena is a grow-only scratch allocator for the collective I/O paths: alloc
// returns an UNINITIALIZED slice that the caller fully overwrites, and reset
// recycles the whole block at the next two-phase entry on the same bundle.
// Allocations are only valid until that reset — safe because every wire
// message and collective buffer dies at the operation's trailing barrier,
// and the bundle is not reused before it (twoPhaseScratch).
type arena struct {
	buf []byte
	off int
}

func (a *arena) reset() { a.off = 0 }

func (a *arena) alloc(n int) []byte {
	if a.off+n > len(a.buf) {
		// Fresh block (old outstanding slices keep the old one alive);
		// the zeroing cost of make is paid once per growth, not per call.
		c := 2*len(a.buf) + n
		if c < 1<<16 {
			c = 1 << 16
		}
		a.buf = make([]byte, c)
		a.off = 0
	}
	s := a.buf[a.off : a.off+n : a.off+n]
	a.off += n
	return s
}

// arena64 is arena's int64 counterpart, for run bookkeeping (offsets,
// lengths, buffer positions) that dies when the collective call returns.
type arena64 struct {
	buf []int64
	off int
}

func (a *arena64) reset() { a.off = 0 }

func (a *arena64) alloc(n int) []int64 {
	if a.off+n > len(a.buf) {
		c := 2*len(a.buf) + n
		if c < 4096 {
			c = 4096
		}
		a.buf = make([]int64, c)
		a.off = 0
	}
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
		fileScratch: scratchPool.Get().(*fileScratch)}, nil
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
		fileScratch: scratchPool.Get().(*fileScratch)}, nil
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
		scratchPool.Put(f.fileScratch)
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
	type span struct{ lo, hi int64 }
	spans := make([]span, 0, len(ext)/2)
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

// piece is one contiguous extent of a two-phase write on its aggregator.
// Wire format of a piece message: u32 count, count x (i64 off, i64 len),
// then the payloads back to back (none for read requests).
type piece struct {
	off  int64
	data []byte
}

// appendPieces decodes a piece message without allocating: payload slices
// alias msg, headers are walked in place, and the pieces land in dst (reused
// across calls).
func appendPieces(dst []piece, msg []byte) []piece {
	if len(msg) < 4 {
		return dst
	}
	count := int(binary.LittleEndian.Uint32(msg))
	hp, dp := 4, 4+16*count
	for i := 0; i < count; i++ {
		off := int64(binary.LittleEndian.Uint64(msg[hp:]))
		n := int(binary.LittleEndian.Uint64(msg[hp+8:]))
		hp += 16
		dst = append(dst, piece{off: off, data: msg[dp : dp+n]})
		dp += n
	}
	return dst
}

// rpiece is one requested extent on a read aggregator: who asked (src),
// which request of theirs it was (idx), the file range, and — once the
// extent reads complete — the collective-buffer bytes that satisfy it.
type rpiece struct {
	src, idx int
	off, n   int64
	data     []byte
}

// encodeHdrs builds a header-only wire message (read requests) in arena
// scratch.
func (a *arena) encodeHdrs(offs, lens []int64) []byte {
	out := a.alloc(4 + 16*len(offs))
	binary.LittleEndian.PutUint32(out, uint32(len(offs)))
	p := 4
	for i := range offs {
		binary.LittleEndian.PutUint64(out[p:], uint64(offs[i]))
		binary.LittleEndian.PutUint64(out[p+8:], uint64(lens[i]))
		p += 16
	}
	return out
}

// encodeRuns builds a piece wire message in arena scratch, copying the
// payloads straight out of the caller's data buffer (no [][]byte
// indirection).
func (a *arena) encodeRuns(offs, lens, bpos []int64, data []byte) []byte {
	var total int64
	for _, n := range lens {
		total += n
	}
	out := a.alloc(4 + 16*len(offs) + int(total))
	binary.LittleEndian.PutUint32(out, uint32(len(offs)))
	p := 4
	for i := range offs {
		binary.LittleEndian.PutUint64(out[p:], uint64(offs[i]))
		binary.LittleEndian.PutUint64(out[p+8:], uint64(lens[i]))
		p += 16
	}
	for i := range offs {
		p += copy(out[p:], data[bpos[i]:bpos[i]+lens[i]])
	}
	return out
}

// encodeRPieces builds a reply wire message in arena scratch from one
// source's satisfied request pieces, already in request (idx) order.
func (a *arena) encodeRPieces(ps []rpiece) []byte {
	var total int64
	for i := range ps {
		total += ps[i].n
	}
	out := a.alloc(4 + 16*len(ps) + int(total))
	binary.LittleEndian.PutUint32(out, uint32(len(ps)))
	p := 4
	for i := range ps {
		binary.LittleEndian.PutUint64(out[p:], uint64(ps[i].off))
		binary.LittleEndian.PutUint64(out[p+8:], uint64(ps[i].n))
		p += 16
	}
	for i := range ps {
		p += copy(out[p:], ps[i].data)
	}
	return out
}

// intersectInto returns, for each of this rank's runs, its overlap with
// [dLo,dHi): file offsets, lengths and the matching buffer positions, on
// the int64 arena — the slices die with the enclosing two-phase operation.
func intersectInto(i64s *arena64, runs []mpi.Run, bufOff []int64, dLo, dHi int64) (offs, lens, bpos []int64) {
	k := 0
	for _, run := range runs {
		if max64(run.Off, dLo) < min64(run.Off+run.Len, dHi) {
			k++
		}
	}
	if k == 0 {
		return nil, nil, nil
	}
	offs = i64s.alloc(k)[:0]
	lens = i64s.alloc(k)[:0]
	bpos = i64s.alloc(k)[:0]
	for i, run := range runs {
		s := max64(run.Off, dLo)
		e := min64(run.Off+run.Len, dHi)
		if s >= e {
			continue
		}
		offs = append(offs, s)
		lens = append(lens, e-s)
		bpos = append(bpos, bufOff[i]+(s-run.Off))
	}
	return
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

// twoPhaseScratch returns the scratch bundle a two-phase operation works
// in, reset for a new message set. A blocking operation borrows the
// handle's: its trailing barrier runs before it returns, so everything in
// the bundle is dead by the next call. A behind operation returns from
// Begin with its barrier still to come — peers may yet be reading the wire
// messages it built (the exchange passes payloads by reference), its own
// reply phase is outstanding, and the caller is free to start any other
// operation on the handle meanwhile — so it takes a bundle of its own from
// the pool and gives it back only after its Wait's barrier.
func (f *File) twoPhaseScratch(behind bool) *fileScratch {
	sc := f.fileScratch
	if behind {
		sc = scratchPool.Get().(*fileScratch)
	}
	sc.scratch.reset()
	sc.i64s.reset()
	return sc
}

// WriteAtAll is a collective write: every rank of the communicator must
// call it. Each rank contributes the file extents `runs` (sorted,
// non-overlapping across ranks) with data in run order. The two-phase
// strategy redistributes the data to aggregators (communication phase),
// which then issue large contiguous writes over their file domains (I/O
// phase).
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
	bufOff := bufPrefixInto(sc.i64s.alloc(len(runs)), runs)

	// Communication phase: ship each aggregator its domain's pieces.
	parts := make([][]byte, f.r.Size())
	for a := 0; a < naggs; a++ {
		dLo, dHi := domain(lo, hi, naggs, a)
		offs, lens, bpos := intersectInto(&sc.i64s, runs, bufOff, dLo, dHi)
		if len(offs) == 0 {
			continue
		}
		parts[f.aggRank(a, rot)] = sc.scratch.encodeRuns(offs, lens, bpos, data)
	}
	// Scratch exchange: parts live in sc.scratch, which is not reset before
	// this operation's trailing barrier — by which time every aggregator
	// has consumed its pieces.
	exch := obs.Begin(proc, obs.LayerMPIIO, "exchange")
	sc.sendTo, sc.recvFrom = f.partners(sc.sendTo[:0], sc.recvFrom[:0], ext, lo, hi, naggs, rot)
	recvd := f.r.ExchangeScratch(parts, sc.sendTo, sc.recvFrom)
	exch.End()

	// I/O phase (aggregators only): assemble, coalesce, write in
	// CBBufferSize chunks.
	is := f.issuer(behind)
	if f.myAggIndex(naggs, rot) >= 0 {
		iop := obs.Begin(proc, obs.LayerMPIIO, "io")
		if behind {
			iop.Attr("deferred", "1")
		}
		pieces := sc.pieces[:0]
		var assembled int64
		for _, msg := range recvd {
			pieces = appendPieces(pieces, msg)
		}
		for _, pc := range pieces {
			assembled += int64(len(pc.data))
		}
		if len(pieces) > 0 {
			f.r.CopyCost(assembled) // pack into the collective buffer
			// Offsets are unique (runs never overlap across ranks), so the
			// comparison is a total order and the sort is deterministic.
			slices.SortFunc(pieces, func(a, b piece) int {
				switch {
				case a.off < b.off:
					return -1
				case a.off > b.off:
					return 1
				}
				return 0
			})
			writeCoalesced(&is, sc, pieces)
		}
		sc.pieces = pieces[:0]
		iop.Bytes(assembled).End()
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
		scratchPool.Put(sc)
	}
	return p
}

// writeCoalesced merges offset-sorted pieces into contiguous extents and
// hands them to the issuer in chunks of at most CBBufferSize. The assembly
// buffer is free again when it returns: a write stores its bytes at issue.
func writeCoalesced(is *issuer, sc *fileScratch, pieces []piece) {
	cb := is.f.hints.CBBufferSize
	if int64(cap(sc.cbBuf)) < cb {
		sc.cbBuf = make([]byte, 0, cb)
	}
	buf := sc.cbBuf[:0]
	defer func() { sc.cbBuf = buf[:0] }()
	var start int64 = -1
	flush := func() {
		if start >= 0 && len(buf) > 0 {
			is.write(buf, start)
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
				// flush a full chunk and continue at the next offset
				nextStart := start + int64(len(buf))
				is.write(buf, start)
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
}

// ReadAtAll is the collective read: aggregators read large contiguous
// extents of their file domains and redistribute the pieces to the
// requesting ranks.
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
	proc := f.client.Proc
	allSp := obs.Begin(proc, obs.LayerMPIIO, pick(behind, "read_all", "read_all_begin")).Bytes(int64(len(buf)))
	defer allSp.End()
	offSp := obs.Begin(proc, obs.LayerMPIIO, "offsets")
	lo, hi, interleaved, ext := f.accessRange(runs)
	offSp.End()
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
	bufOff := bufPrefixInto(sc.i64s.alloc(len(runs)), runs)

	// Request phase: tell each aggregator which extents we need and
	// remember the matching buffer positions, in order.
	wants := make([][]int64, naggs)
	reqs := make([][]byte, f.r.Size())
	for a := 0; a < naggs; a++ {
		dLo, dHi := domain(lo, hi, naggs, a)
		offs, lens, bpos := intersectInto(&sc.i64s, runs, bufOff, dLo, dHi)
		if len(offs) == 0 {
			continue
		}
		wants[a] = bpos
		reqs[f.aggRank(a, rot)] = sc.scratch.encodeHdrs(offs, lens)
	}
	// Scratch exchange: reqs live in sc.scratch, which is not reset before
	// this operation's trailing barrier.
	exch := obs.Begin(proc, obs.LayerMPIIO, "exchange")
	sc.sendTo, sc.recvFrom = f.partners(sc.sendTo[:0], sc.recvFrom[:0], ext, lo, hi, naggs, rot)
	reqsRecvd := f.r.ExchangeScratch(reqs, sc.sendTo, sc.recvFrom)
	exch.End()

	// I/O phase: aggregators read the coalesced union of requested extents.
	// What they read stays in sc (rpieces, srcCounts, extents, extData) for
	// the reply phase.
	is := f.issuer(behind)
	sc.rpieces = sc.rpieces[:0]
	var scatter int64 // the aggregator's copy out of its collective buffer, when that waits for Wait
	if f.myAggIndex(naggs, rot) >= 0 {
		iop := obs.Begin(proc, obs.LayerMPIIO, "io")
		if behind {
			iop.Attr("deferred", "1")
		}
		readBytes := f.readRequested(&is, sc, reqsRecvd)
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
	t := readTail{sc: sc, buf: buf, wants: wants, naggs: naggs, rot: rot, scatter: scatter}
	if !behind {
		f.replyAndPlace(t)
		return nil
	}
	p := is.pending("read_all_end")
	p.tail = func() {
		f.replyAndPlace(t)
		scratchPool.Put(sc)
	}
	return p
}

// readRequested is the aggregator half of a two-phase read's I/O phase: it
// collects every extent the request messages name into sc.rpieces, grouped
// by source (group s is rpieces[srcCounts[s]:srcCounts[s+1]]), coalesces
// them into sc.extents and issues those reads, CBBufferSize at a time,
// into sc.extData. It returns the bytes read.
func (f *File) readRequested(is *issuer, sc *fileScratch, reqsRecvd [][]byte) int64 {
	// Header walk, no decode allocs. The walk visits sources in rank order,
	// so all lands naturally grouped by src, and within one group the
	// pieces are both idx- and off-ascending (intersectInto emits offsets
	// in request order) — which is why no sort appears below.
	size := f.r.Size()
	all := sc.rpieces[:0]
	srcStart := sc.srcCounts
	if cap(srcStart) < size+1 {
		srcStart = make([]int, size+1)
	}
	srcStart = srcStart[:size+1]
	for src, msg := range reqsRecvd {
		srcStart[src] = len(all)
		if len(msg) < 4 {
			continue
		}
		count := int(binary.LittleEndian.Uint32(msg))
		p := 4
		for i := 0; i < count; i++ {
			all = append(all, rpiece{
				src: src,
				idx: i,
				off: int64(binary.LittleEndian.Uint64(msg[p:])),
				n:   int64(binary.LittleEndian.Uint64(msg[p+8:])),
			})
			p += 16
		}
	}
	srcStart[size] = len(all)
	sc.srcCounts, sc.rpieces = srcStart, all
	sc.extents, sc.extData = sc.extents[:0], sc.extData[:0]
	if len(all) == 0 {
		return 0
	}
	// Coalesce the requested extents without materializing a globally
	// sorted piece list: a k-way merge over the per-src groups visits
	// offsets in nondecreasing order, which is all interval union needs
	// (the order among equal offsets cannot change the union). heads is a
	// binary min-heap of one cursor per non-empty group, keyed by the head
	// piece's offset.
	heads := sc.order[:0]
	for s := 0; s < size; s++ {
		if srcStart[s] < srcStart[s+1] {
			heads = append(heads, srcStart[s])
		}
	}
	sift := func(i int) {
		for {
			l, r, m := 2*i+1, 2*i+2, i
			if l < len(heads) && all[heads[l]].off < all[heads[m]].off {
				m = l
			}
			if r < len(heads) && all[heads[r]].off < all[heads[m]].off {
				m = r
			}
			if m == i {
				return
			}
			heads[i], heads[m] = heads[m], heads[i]
			i = m
		}
	}
	for i := len(heads)/2 - 1; i >= 0; i-- {
		sift(i)
	}
	extents := sc.extents
	for len(heads) > 0 {
		rp := &all[heads[0]]
		if n := len(extents); n > 0 && rp.off <= extents[n-1].Off+extents[n-1].Len {
			if e := rp.off + rp.n; e > extents[n-1].Off+extents[n-1].Len {
				extents[n-1].Len = e - extents[n-1].Off
			}
		} else {
			extents = append(extents, mpi.Run{Off: rp.off, Len: rp.n})
		}
		if h := heads[0] + 1; h < srcStart[rp.src+1] {
			heads[0] = h
		} else {
			heads[0] = heads[len(heads)-1]
			heads = heads[:len(heads)-1]
		}
		sift(0)
	}
	// Read the extents chunked into arena scratch (fully overwritten by
	// the reads, so the uninitialized alloc is safe).
	extData := sc.extData
	for _, ext := range extents {
		data := sc.scratch.alloc(int(ext.Len))
		for base := int64(0); base < ext.Len; base += f.hints.CBBufferSize {
			n := min64(f.hints.CBBufferSize, ext.Len-base)
			is.read(data[base:base+n], ext.Off+base)
		}
		extData = append(extData, data)
	}
	sc.order, sc.extents, sc.extData = heads[:0], extents, extData
	return mpi.TotalLen(extents)
}

// readTail is what a two-phase read still owes once its extent reads are
// issued: the reply phase, over the state the I/O phase left in sc.
type readTail struct {
	sc         *fileScratch
	buf        []byte
	wants      [][]int64 // per aggregator: buffer positions of the requested pieces, in request order
	naggs, rot int
	scatter    int64 // bytes of collective-buffer scatter still to charge (behind aggregators)
}

// replyAndPlace is the reply phase of a two-phase read: every aggregator
// answers the ranks it heard from out of the extents it read, the pieces
// land in the caller's buffer, and the trailing barrier keeps the
// participants in lockstep (and the scratch alive until every peer has
// copied its reply out).
func (f *File) replyAndPlace(t readTail) {
	sc, size := t.sc, f.r.Size()
	if t.scatter > 0 {
		f.r.CopyCost(t.scatter)
	}
	replies := make([][]byte, size)
	if all := sc.rpieces; len(all) > 0 {
		// Fill each group's requests from the extents and encode its
		// reply: group and extents are both off-ascending, so each
		// group's containing-extent cursor only moves forward, and the
		// group's natural order is already the idx order the requester
		// expects.
		extents, extData, srcStart := sc.extents, sc.extData, sc.srcCounts
		for s := 0; s < size; s++ {
			g := all[srcStart[s]:srcStart[s+1]]
			if len(g) == 0 {
				continue
			}
			ei := 0
			for i := range g {
				rp := &g[i]
				for rp.off >= extents[ei].Off+extents[ei].Len {
					ei++
				}
				if rp.off < extents[ei].Off || rp.off+rp.n > extents[ei].Off+extents[ei].Len {
					panic("mpiio: request outside read extents")
				}
				rp.data = extData[ei][rp.off-extents[ei].Off : rp.off-extents[ei].Off+rp.n]
			}
			replies[s] = sc.scratch.encodeRPieces(g)
		}
	}
	// Replies retrace the request phase: every aggregator answers exactly
	// the ranks it heard from (an empty reply to an empty request).
	exch := obs.Begin(f.client.Proc, obs.LayerMPIIO, "exchange")
	got := f.r.ExchangeScratch(replies, sc.recvFrom, sc.sendTo)
	exch.End()

	// Place the received pieces into buf, in the order we requested them.
	for a := 0; a < t.naggs; a++ {
		bpos := t.wants[a]
		if len(bpos) == 0 {
			continue
		}
		msg := got[f.aggRank(a, t.rot)]
		count := 0
		if len(msg) >= 4 {
			count = int(binary.LittleEndian.Uint32(msg))
		}
		if count != len(bpos) {
			panic(fmt.Sprintf("mpiio: aggregator %d returned %d pieces, want %d",
				a, count, len(bpos)))
		}
		hp, dp := 4, 4+16*count
		for i := 0; i < count; i++ {
			n := int(binary.LittleEndian.Uint64(msg[hp+8:]))
			hp += 16
			copy(t.buf[bpos[i]:bpos[i]+int64(n)], msg[dp:dp+n])
			dp += n
		}
	}
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
