package obs

import (
	"repro/internal/pfs"
	"repro/internal/sim"
)

// NumSizeBuckets bounds the request-size histogram: bucket i holds requests
// with 2^i <= bytes < 2^(i+1); bucket 0 also holds 0- and 1-byte requests.
// 2^47 bytes is far beyond any modelled request.
const NumSizeBuckets = 48

// SizeBucket returns the histogram bucket for an n-byte request.
func SizeBucket(n int64) int {
	b := 0
	for v := n; v > 1; v >>= 1 {
		b++
	}
	if b >= NumSizeBuckets {
		b = NumSizeBuckets - 1
	}
	return b
}

// FileCounters is a Darshan-style counter record: one per (rank, file)
// pair, accumulating operation counts, byte totals, access-pattern
// classification and virtual time split between metadata and data.
//
// Access-pattern classification follows Darshan's definitions, tracked
// independently for reads and writes: an access is *sequential* when its
// offset is at or past the end of the rank's previous access to the file,
// and *consecutive* when it starts exactly at the previous end.
type FileCounters struct {
	Rank int
	File string

	Creates int64
	Opens   int64
	Closes  int64
	Reads   int64
	Writes  int64

	BytesRead    int64
	BytesWritten int64

	SeqReads     int64
	ConsecReads  int64
	SeqWrites    int64
	ConsecWrites int64

	// SizeHist buckets read+write request sizes by power of two.
	SizeHist [NumSizeBuckets]int64

	MetaTime  float64 // virtual seconds in create/open/close
	ReadTime  float64
	WriteTime float64

	// Write-behind accounting: deferred (async) writes charge only their
	// issue cost to WriteTime; the device time past issue — which the rank
	// may overlap with compute — accumulates here.
	DeferredWrites  int64
	WriteBehindTime float64

	// Read-behind accounting: the read mirror of the write-behind split —
	// deferred reads charge their issue cost to ReadTime and the device
	// time past issue accumulates here.
	DeferredReads  int64
	ReadBehindTime float64

	// Fault-tolerance accounting: Timeouts counts deadline-aware operations
	// that returned a *pfs.DeviceError (the wait until the deadline is still
	// charged to ReadTime/WriteTime); Retries counts MPI-IO retry attempts
	// reported through AddRetry.
	Timeouts int64
	Retries  int64

	haveRead     bool
	lastReadEnd  int64
	haveWrite    bool
	lastWriteEnd int64
}

func (t *Tracer) fileCounters(rank int, file string) *FileCounters {
	t.mu.Lock()
	defer t.mu.Unlock()
	k := counterKey{rank: rank, file: file}
	fc, ok := t.counters[k]
	if !ok {
		fc = &FileCounters{Rank: rank, File: file}
		t.counters[k] = fc
		t.ckeys = append(t.ckeys, k)
	}
	return fc
}

// AddRetry counts one I/O retry attempt on file for p's rank. It is called
// by the MPI-IO layer's retry loop; like every obs hook it is a no-op when
// p carries no tracer and never advances virtual time.
func AddRetry(p *sim.Proc, file string) {
	if h, ok := p.Trace().(*procTrace); ok {
		h.t.fileCounters(h.rank, file).Retries++
	}
}

// Counters returns every per-rank per-file counter record in first-touch
// order (deterministic: the engine serializes all simulated work).
func (t *Tracer) Counters() []*FileCounters {
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make([]*FileCounters, len(t.ckeys))
	for i, k := range t.ckeys {
		out[i] = t.counters[k]
	}
	return out
}

// WrapFS returns a pfs.FileSystem that records Darshan-style counters and
// pfs-layer spans into tr around every call, then delegates to fs. Like
// every obs hook it only reads the virtual clock. Procs without a tracer
// attached pass through uncounted.
//
// It is the one place a tracer is attached to a file-system stack: it also
// records the stack's geometry (the model's name, its striping when some
// layer has one) and puts tr on every layer's servers.
func WrapFS(fs pfs.FileSystem, tr *Tracer) pfs.FileSystem {
	fi := FSInfo{Name: pfs.Base(fs).Name()}
	if sv, ok := pfs.As[pfs.StripedVolume](fs); ok {
		fi.DataServers = sv.NumDataServers()
		fi.StripeUnit = sv.StripeUnit()
	}
	tr.SetFSInfo(fi)
	pfs.Observe(fs, tr)
	return &obsFS{inner: fs, tr: tr}
}

type obsFS struct {
	inner pfs.FileSystem
	tr    *Tracer
}

// Unwrap implements pfs.Wrapper.
func (o *obsFS) Unwrap() pfs.FileSystem { return o.inner }

func (o *obsFS) Name() string                    { return o.inner.Name() }
func (o *obsFS) Stats() pfs.Stats                { return o.inner.Stats() }
func (o *obsFS) Exists(n string) bool            { return o.inner.Exists(n) }
func (o *obsFS) Snapshot() map[string][]byte     { return o.inner.Snapshot() }
func (o *obsFS) Restore(files map[string][]byte) { o.inner.Restore(files) }

// rank returns the rank attached to p, or -1 if p carries no tracer state.
func rankOf(p *sim.Proc) int {
	if h, ok := p.Trace().(*procTrace); ok {
		return h.rank
	}
	return -1
}

func (o *obsFS) Create(c pfs.Client, name string) (pfs.File, error) {
	sp, start := Begin(c.Proc, LayerPFS, "create").Attr("file", name), c.Proc.Now()
	f, err := o.inner.Create(c, name)
	return o.opened(c, sp, start, "create", f, name, err)
}

// CreatePlaced implements pfs.PlacedCreator (falling back to a plain create
// when the inner file system cannot place), counted like any other create.
func (o *obsFS) CreatePlaced(c pfs.Client, name string, server int) (pfs.File, error) {
	sp, start := Begin(c.Proc, LayerPFS, "create").Attr("file", name), c.Proc.Now()
	f, err := pfs.CreatePlacedOn(o.inner, c, name, server)
	return o.opened(c, sp, start, "create", f, name, err)
}

func (o *obsFS) Open(c pfs.Client, name string) (pfs.File, error) {
	sp, start := Begin(c.Proc, LayerPFS, "open").Attr("file", name), c.Proc.Now()
	f, err := o.inner.Open(c, name)
	return o.opened(c, sp, start, "open", f, name, err)
}

// opened closes the span of a create or open that began at start and, if
// it succeeded, books it and wraps the handle.
func (o *obsFS) opened(c pfs.Client, sp *Active, start float64, op string, f pfs.File, name string, err error) (pfs.File, error) {
	sp.End()
	if err != nil {
		return pfs.File{}, err
	}
	o.bookMeta(c, op, name, start)
	return pfs.File{Handle: &obsFile{inner: f, fs: o}}, nil
}

// bookMeta counts one create, open or close of file that began at start.
func (o *obsFS) bookMeta(c pfs.Client, op, file string, start float64) {
	r := rankOf(c.Proc)
	if r < 0 {
		return
	}
	fc := o.tr.fileCounters(r, file)
	switch op {
	case "create":
		fc.Creates++
	case "open":
		fc.Opens++
	case "close":
		fc.Closes++
	}
	fc.MetaTime += c.Proc.Now() - start
	o.tr.recordDur(op, c.Proc.Now()-start)
}

type obsFile struct {
	inner pfs.File
	fs    *obsFS
}

func (f *obsFile) Name() string            { return f.inner.Name() }
func (f *obsFile) Size(c pfs.Client) int64 { return f.inner.Size(c) }

func (f *obsFile) Close(c pfs.Client) {
	sp, start := Begin(c.Proc, LayerPFS, "close"), c.Proc.Now()
	f.inner.Close(c)
	sp.End()
	f.fs.bookMeta(c, "close", f.inner.Name(), start)
}

// Do implements pfs.Handle: one span and one counter update per request,
// keyed on the request's direction, its mode and whether it timed out.
//
// A blocking span covers issue and wait. A Behind span covers the issue
// interval only and carries deferred=1; the device time past issue — which
// the rank may overlap with compute — is booked into the file's
// write-behind/read-behind counters. A By request that missed its deadline
// carries timeout=1 and still charges its wait to ReadTime/WriteTime, but
// moved no data: it bumps Timeouts and is not counted as a read or write.
func (f *obsFile) Do(c pfs.Client, r pfs.Req) (float64, error) {
	n, op := int64(len(r.Buf)), r.Op()
	sp := Begin(c.Proc, LayerPFS, op).Bytes(n)
	if r.Mode == pfs.Behind {
		sp.Attr("deferred", "1")
	}
	start := c.Proc.Now()
	end, err := f.inner.Do(c, r)
	if err != nil {
		sp.Attr("timeout", "1")
	}
	sp.End()
	rank := rankOf(c.Proc)
	if rank < 0 {
		return end, err
	}
	fc := f.fs.tr.fileCounters(rank, f.inner.Name())
	d := fc.dir(r.Write)
	now := c.Proc.Now()
	*d.time += now - start
	if err != nil {
		fc.Timeouts++
		return end, err
	}
	*d.ops++
	*d.bytes += n
	if r.Mode == pfs.Behind {
		*d.deferred++
		if end > now {
			*d.behind += end - now
		}
	}
	fc.SizeHist[SizeBucket(n)]++
	if *d.have {
		if r.Off == *d.lastEnd {
			*d.consec++
			*d.seq++
		} else if r.Off > *d.lastEnd {
			*d.seq++
		}
	}
	*d.have = true
	*d.lastEnd = r.Off + n
	f.fs.tr.recordDur(op, now-start)
	return end, nil
}

// dirCounters addresses the read or the write half of a FileCounters.
type dirCounters struct {
	ops, bytes, seq, consec, deferred, lastEnd *int64
	time, behind                               *float64
	have                                       *bool
}

func (fc *FileCounters) dir(write bool) dirCounters {
	if write {
		return dirCounters{&fc.Writes, &fc.BytesWritten, &fc.SeqWrites, &fc.ConsecWrites, &fc.DeferredWrites,
			&fc.lastWriteEnd, &fc.WriteTime, &fc.WriteBehindTime, &fc.haveWrite}
	}
	return dirCounters{&fc.Reads, &fc.BytesRead, &fc.SeqReads, &fc.ConsecReads, &fc.DeferredReads,
		&fc.lastReadEnd, &fc.ReadTime, &fc.ReadBehindTime, &fc.haveRead}
}
