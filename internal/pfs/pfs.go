// Package pfs models the parallel file systems of the paper's evaluation:
// XFS on the SGI Origin2000 (a striped multi-LUN scratch volume reached
// through shared memory), GPFS on the IBM SP-2 (large fixed stripes on VSD
// servers, with per-SMP-node I/O queues and a distributed lock manager),
// PVFS on the Chiba City Linux cluster (user-level I/O daemons reached over
// fast Ethernet) and node-local disks driven through the PVFS interface.
//
// Every file system stores real bytes (ByteStore: a sorted index of the
// buffers writes handed it, kept by reference and never written through), so
// the layers above can verify that data round-trips, while access costs
// are charged to the calling process's virtual clock through sim.Server
// queues that model disks, NICs and lock managers. The index holds Pieces —
// bytes at a file offset — and a lend read hands the same Pieces out, the
// one form the layers above pass on (PieceAt, CopyPieces, LentRange).
//
// # One request primitive
//
// A file handle has one request method, Do, and a request (Req) carries its
// own Mode; ReadAt, LendAt, WriteAt, WriteAtAsync, ReadAtDeadline and
// LendAtDeadline are spelled once, in this file, as builders of a Req.
//
// A model is its devices: issue, one method for reads and writes alike, and
// meta for create, open and close. XFS, GPFS and PVFS share everything else
// through the volume they embed (volume.go): the namespace, Stats, the
// FileSystem metadata surface and one handle, whose Do charges the model's
// issue and hands the completion to settle. LocalFS, whose store is the
// calling node's partition, keeps a handle of its own. A wrapper passes the
// Req down unchanged. What differs between the three modes at the device,
// exhaustively:
//
//  1. Block: the caller's clock advances to the completion.
//  2. Behind: every server is charged at issue with exactly the timestamps
//     a blocking request issued now would use, and the bytes move at issue;
//     the caller's clock stops after the synchronous client-side cost (the
//     per-call overhead, GPFS's VSD queue, token and metanode traffic, the
//     XFS and local buffer copy) and the completion is returned. Charging
//     at issue is what keeps the engine's scheduling invariant intact: the
//     running process holds the minimum clock, so a server seeing the
//     request now observes the same nondecreasing arrival order it would
//     under blocking I/O. Deferral postpones only the caller's own wait.
//  3. By: as Block, but a completion past the deadline costs the wait to
//     the deadline, leaves the devices charged (they did the work), moves no
//     bytes, counts in no stats and returns a *DeviceError.
//  4. XFS and LocalFS have no server that can straggle or die — their
//     storage is client-local — so By is Block there.
//  5. When bytes move: a write is stored at issue in every mode (unless its
//     deadline was missed); a read fills its buffer at issue when Behind —
//     the store holds the bytes a blocking read issued now would observe —
//     and after the wait otherwise. Only a same-byte race between ranks
//     inside one request window could tell.
//  6. The burst buffer guards (and returns) the staging completion; the
//     drain to the backing tier is a Behind request tracked per file, which
//     the next read of that file settles.
//  7. A zero-length request touches no device in any mode.
//
// The mode travels inside Do rather than the wait being hoisted above the
// wrapper chain, because a wrapper in the middle must still see it: the
// tap's sink — the obs tracer's spans, counters and call log — distinguishes
// all three.
//
// # One wrapper spine
//
// Wrappers (prefix, BurstBuffer, the tap, faultfs) expose Unwrap, and As
// finds a volume capability by walking the chain. A wrapper implements a
// capability only when it changes it; everything else is found below it.
//
//	capability                         declared on
//	StripedVolume, ReplicaVolume,      stripedVolume, which *PVFS and *GPFS
//	  StripeFaultInjector              embed (DegradeDataServer on the
//	                                   models: PVFS slows its daemon CPU)
//	ServeObservable                    the four models, BurstBuffer (staging
//	                                   disks); Observe visits every layer
//	PlacementRestorer                  stripedVolume, prefix (renames)
//	CodecReporter                      obs's tap (receiver: the tracer),
//	                                   prefix (renames)
//	PlacedCreator                      stripedVolume and every wrapper (each
//	                                   wraps the handle it gets back: prefix
//	                                   renames, the tap observes a create)
//	Peeker                             volume, LocalFS, prefix (renames)
//
// # One observer
//
// Tap is the one wrapper that observes. It passes every call down as it came
// and, once the call has returned, hands its sink a Call: who called, the
// operation ("create", "open", "close", or the request's Op), the file, the
// Req (zero for a metadata call), the caller's clock before and after (Start,
// Now), the device completion the call returned (Done) and its error — a
// failed create or open, or the *DeviceError of a missed deadline. That value
// is the definition of an observed call; what to keep of it is the sink's
// business. obs.WrapFS is the tap with a Tracer as its one sink, and a new
// recorder is a view of the tracer's call log or a new sink, not a new
// wrapper.
package pfs

import (
	"sync"

	"repro/internal/sim"
)

// Client identifies who is performing an I/O call: the simulation process
// whose clock pays for it and the physical node it runs on (which NIC its
// traffic uses, which local disk it owns).
type Client struct {
	Proc *sim.Proc
	Node int
}

// FileSystem is the interface shared by all four file system models.
type FileSystem interface {
	// Name identifies the file system type ("xfs", "gpfs", "pvfs", "local").
	Name() string
	// Create makes (or truncates) a file and returns a handle. Creation
	// costs metadata time on the caller's clock.
	Create(c Client, name string) (File, error)
	// Open returns a handle to an existing file.
	Open(c Client, name string) (File, error)
	// Exists reports whether a file exists (no cost; used by tests).
	Exists(name string) bool
	// Stats returns cumulative I/O accounting for the file system.
	Stats() Stats
	// Snapshot returns raw copies of every file's contents, out of band
	// (no virtual time) — for staging data between simulation runs, the
	// way an operator would copy checkpoint files between allocations.
	// LocalFS keys entries as "node<N>/<name>"; shared file systems use
	// the plain name.
	Snapshot() map[string][]byte
	// Restore loads a Snapshot into this (typically fresh) file system,
	// out of band. The file system keeps the slices it is given, as a write
	// does; the caller must not modify them afterwards.
	Restore(files map[string][]byte)
}

// Wrapper is implemented by every FileSystem that layers over another one
// (prefix, burst buffer, the tap, faultfs). Unwrap returns the next
// layer down; the chain ends at one of the four models.
type Wrapper interface {
	Unwrap() FileSystem
}

// unwrap returns the layer below fs, or nil when fs is a model.
func unwrap(fs FileSystem) FileSystem {
	if w, ok := fs.(Wrapper); ok {
		return w.Unwrap()
	}
	return nil
}

// As returns the outermost layer of fs's wrapper chain that implements T
// (the errors.As idiom). Resolve capabilities once, when a run is set up;
// nothing on the request path calls it.
func As[T any](fs FileSystem) (T, bool) {
	for ; fs != nil; fs = unwrap(fs) {
		if t, ok := fs.(T); ok {
			return t, true
		}
	}
	var zero T
	return zero, false
}

// Base returns the model at the bottom of fs's wrapper chain.
func Base(fs FileSystem) FileSystem {
	for {
		below := unwrap(fs)
		if below == nil {
			return fs
		}
		fs = below
	}
}

// ServeObservable is implemented by the layers that own sim.Servers —
// disks, NICs, daemon CPUs, lock managers: the four models and the burst
// buffer's staging disks. SetServeObserver attaches o to every server of
// that layer alone, including servers created lazily after the call.
type ServeObservable interface {
	SetServeObserver(o sim.ServeObserver)
}

// Observe attaches o to the servers of every layer of fs's chain.
func Observe(fs FileSystem, o sim.ServeObserver) {
	for ; fs != nil; fs = unwrap(fs) {
		if so, ok := fs.(ServeObservable); ok {
			so.SetServeObserver(o)
		}
	}
}

// CodecReporter is implemented by instrumentation wrappers that want the
// logical (uncompressed) vs physical (on-disk) byte accounting of
// transparently compressed transfers. The application layer calls it once
// per compressed array transfer; the models do not implement it.
type CodecReporter interface {
	// RecordCodecBytes reports one compressed transfer on file: logical is
	// the array's uncompressed size, physical the container bytes actually
	// moved. write distinguishes dump writes from restart/initial reads.
	RecordCodecBytes(file string, write bool, logical, physical int64)
}

// Mode says how the caller of a request waits for the device.
type Mode uint8

const (
	// Block advances the caller's clock to the device completion.
	Block Mode = iota
	// Behind (write-behind, read-ahead) charges every shared resource at
	// issue and leaves the caller's clock where the synchronous client-side
	// work ended; the caller settles by AdvanceTo-ing the returned
	// completion (or the max over a batch) when it drains.
	Behind
	// By is Block with an absolute virtual Deadline: a completion past it is
	// abandoned with a *DeviceError.
	By
)

// Req is one read or write of Len() bytes at Off. It travels by value down
// the wrapper chain, so every layer sees the mode. A read fills Buf with a
// copy out of the store — or, when Lend is set, borrows the store's own bytes
// instead (see Lend). A write hands Buf over: the file holds the slice itself
// from then on, so the issuer must not modify it again (payload buffers are
// write-once, DESIGN.md §13) — whoever reuses a buffer clones it before the
// write.
type Req struct {
	Write    bool
	Mode     Mode
	Buf      []byte // filled by a read, kept by a write
	Lend     *Lend  // a lend read: carries the length, receives the pieces
	Off      int64
	Deadline float64 // By only
}

// Lend is the two ends of a lend read: the reader names N, and a read that
// reaches the store leaves in Pieces the file's bytes [Off, Off+N) as the
// store holds them (ByteStore.LendAt), each piece at its file offset, with no
// copy made. The pieces are read-only — a reader that changed one would
// change the file. The reader owns the Lend and may reuse it, and Pieces'
// backing array, for its next.
type Lend struct {
	N      int64
	Pieces []Piece
}

// LentRange returns the bytes at file offsets [off, off+n) of a read lent as
// pieces: a capped sub-slice of the piece they lie in, or a copy of the ones
// they span. Either way it is read-only. It panics, naming the offset, if the
// pieces do not hold every byte of the range.
func LentRange(pieces []Piece, off, n int64) []byte {
	i := PieceAt(pieces, off)
	if i < len(pieces) && pieces[i].Off <= off && off+n <= pieces[i].End() {
		at, end := off-pieces[i].Off, off+n-pieces[i].Off
		return pieces[i].Bytes[at:end:end]
	}
	buf := make([]byte, n)
	CopyPieces(buf, pieces, i, off)
	return buf
}

// Len returns the request's byte count.
func (r Req) Len() int64 {
	if r.Lend != nil {
		return r.Lend.N
	}
	return int64(len(r.Buf))
}

// Op names the request's direction, "read" or "write" (the Op of a
// *DeviceError and of an observed Call).
func (r Req) Op() string {
	if r.Write {
		return "write"
	}
	return "read"
}

// Handle is what a model or wrapper implements per open file: Do is its
// only request method. Reads beyond the current size return zero bytes
// (sparse-file semantics); writes extend the file.
type Handle interface {
	Name() string
	// Size returns the file size as visible to this client (on LocalFS
	// each node sees only its own partition).
	Size(c Client) int64
	// Close releases the handle (may cost metadata time, e.g. flushing).
	Close(c Client)
	// Do performs r, charging the caller, and returns the device completion
	// time. The error is nil or the *DeviceError of a By request that
	// missed its deadline.
	Do(c Client, r Req) (end float64, err error)
}

// File is an open file handle: a Handle plus the named request shapes,
// which are defined here and nowhere else — each builds a Req for Do.
type File struct{ Handle }

// ReadAt fills buf from the file at off, charging the caller.
func (f File) ReadAt(c Client, buf []byte, off int64) {
	f.Do(c, Req{Buf: buf, Off: off})
}

// LendAt borrows l.N bytes at off into l.Pieces (see Lend), charging the
// caller. Pieces is emptied first: a read that moves no bytes never reaches
// the store, and must not hand back the last read's pieces.
func (f File) LendAt(c Client, l *Lend, off int64) {
	l.Pieces = l.Pieces[:0]
	f.Do(c, Req{Lend: l, Off: off})
}

// WriteAt stores data at off, charging the caller.
func (f File) WriteAt(c Client, data []byte, off int64) {
	f.Do(c, Req{Write: true, Buf: data, Off: off})
}

// WriteAtAsync issues a write-behind write and returns its virtual
// completion time.
func WriteAtAsync(f File, c Client, data []byte, off int64) (end float64) {
	end, _ = f.Do(c, Req{Write: true, Mode: Behind, Buf: data, Off: off})
	return end
}

// ReadAtDeadline is ReadAt abandoned with a *DeviceError if the device would
// complete past the absolute virtual deadline.
func ReadAtDeadline(f File, c Client, buf []byte, off int64, deadline float64) error {
	_, err := f.Do(c, Req{Mode: By, Buf: buf, Off: off, Deadline: deadline})
	return err
}

// LendAtDeadline is LendAt abandoned with a *DeviceError if the device would
// complete past the absolute virtual deadline; an abandoned read lends
// nothing (l.Pieces is left empty).
func LendAtDeadline(f File, c Client, l *Lend, off int64, deadline float64) error {
	l.Pieces = l.Pieces[:0]
	_, err := f.Do(c, Req{Mode: By, Lend: l, Off: off, Deadline: deadline})
	return err
}

// idle is a zero-length request: it touches no device, moves no bytes and
// counts in no stats. A caller that waits still waits — for a completion
// that is already in its past, which passes through the scheduler once
// (sim.Proc.AdvanceTo) and costs no time.
func idle(c Client, r Req) (float64, error) {
	if r.Mode != Behind {
		c.Proc.Yield()
	}
	return c.Proc.Now(), nil
}

// settle finishes a request a model (or staging tier) has charged to its
// devices, completing at end. It is the only place the three modes differ.
// st and sc are the store and accounting the bytes move through; a tier
// that keeps no copy of its own passes nil for both.
func settle(c Client, r Req, end float64, fs, file string, st *ByteStore, sc *statsCollector) (float64, error) {
	if r.Mode == By && end > r.Deadline {
		c.Proc.AdvanceTo(r.Deadline)
		return end, &DeviceError{FS: fs, File: file, Op: r.Op(), Deadline: r.Deadline, Completion: end}
	}
	n := r.Len()
	if r.Write && st != nil {
		st.WriteAt(r.Buf, r.Off)
		sc.write(n)
	}
	if r.Mode != Behind {
		c.Proc.AdvanceTo(end)
	}
	if !r.Write && st != nil {
		if r.Lend != nil {
			r.Lend.Pieces = st.LendAt(r.Lend.Pieces[:0], r.Off, n)
		} else {
			st.ReadAt(r.Buf, r.Off)
		}
		sc.read(n)
	}
	return end, nil
}

// Stats is cumulative I/O accounting.
type Stats struct {
	BytesRead    int64
	BytesWritten int64
	ReadReqs     int64
	WriteReqs    int64
	Creates      int64
	Opens        int64
}

// statsCollector accumulates Stats behind a mutex (the engine serializes
// simulation work, but separate engines in tests may share nothing; the
// mutex keeps the type safe regardless).
type statsCollector struct {
	mu sync.Mutex
	s  Stats
}

func (sc *statsCollector) read(n int64) {
	sc.mu.Lock()
	sc.s.BytesRead += n
	sc.s.ReadReqs++
	sc.mu.Unlock()
}

func (sc *statsCollector) write(n int64) {
	sc.mu.Lock()
	sc.s.BytesWritten += n
	sc.s.WriteReqs++
	sc.mu.Unlock()
}

func (sc *statsCollector) create() {
	sc.mu.Lock()
	sc.s.Creates++
	sc.mu.Unlock()
}

func (sc *statsCollector) open() {
	sc.mu.Lock()
	sc.s.Opens++
	sc.mu.Unlock()
}

func (sc *statsCollector) snapshot() Stats {
	sc.mu.Lock()
	defer sc.mu.Unlock()
	return sc.s
}
