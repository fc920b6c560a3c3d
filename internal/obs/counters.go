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

// WrapFS returns a pfs.FileSystem that records every call into tr — one
// call-log record, one pfs-layer span and the Darshan-style counters — then
// delegates to fs: the pfs tap with the tracer as its one sink. It also
// receives the application's codec accounting (pfs.CodecReporter). Like every
// obs hook it only reads the virtual clock. Procs without a tracer attached
// pass through unrecorded.
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
	return tracedFS{TapFS: pfs.Tap(fs, tr.observeCall), t: tr}
}

// observeCall is the tracer's sink on the pfs tap: one call-log record, one
// pfs-layer span and one counter update per call, keyed on the operation, the
// request's mode and whether it failed.
//
// A create or open carries the file name; a failed one keeps its span and
// books nothing. A blocking request's span covers issue and wait. A Behind
// span covers the issue interval only and carries deferred=1; the device time
// past issue — which the rank may overlap with compute — is booked into the
// file's write-behind/read-behind counters. A By request that missed its
// deadline carries timeout=1 and still charges its wait to ReadTime/WriteTime,
// but moved no data: it bumps Timeouts and is not counted as a read or write.
func (t *Tracer) observeCall(c pfs.Call) {
	h, _ := c.Client.Proc.Trace().(*procTrace)
	if h == nil {
		return
	}
	n, dur := c.Req.Len(), c.Now-c.Start
	t.mu.Lock()
	t.calls = append(t.calls, CallRecord{Op: c.Op, File: c.File, Node: c.Client.Node, Offset: c.Req.Off,
		Length: n, Start: c.Start, End: c.Now, Done: c.Done, Failed: c.Err != nil})
	t.mu.Unlock()
	sp := &h.spans[h.add(Span{Layer: LayerPFS, Name: c.Op, Start: c.Start, End: c.Now, Bytes: n})]
	if c.Op == "create" || c.Op == "open" {
		sp.Attrs = append(sp.Attrs, Attr{Key: "file", Value: c.File})
		if c.Err != nil {
			return
		}
	}
	fc := t.fileCounters(h.rank, c.File)
	var meta *int64
	switch c.Op {
	case "create":
		meta = &fc.Creates
	case "open":
		meta = &fc.Opens
	case "close":
		meta = &fc.Closes
	}
	if meta != nil {
		*meta++
		fc.MetaTime += dur
		return
	}
	if c.Req.Mode == pfs.Behind {
		sp.Attrs = append(sp.Attrs, Attr{Key: "deferred", Value: "1"})
	}
	d := fc.dir(c.Req.Write)
	*d.time += dur
	if c.Err != nil {
		sp.Attrs = append(sp.Attrs, Attr{Key: "timeout", Value: "1"})
		fc.Timeouts++
		return
	}
	*d.ops++
	*d.bytes += n
	if c.Req.Mode == pfs.Behind {
		*d.deferred++
		if c.Done > c.Now {
			*d.behind += c.Done - c.Now
		}
	}
	fc.SizeHist[SizeBucket(n)]++
	if *d.have {
		if c.Req.Off == *d.lastEnd {
			*d.consec++
			*d.seq++
		} else if c.Req.Off > *d.lastEnd {
			*d.seq++
		}
	}
	*d.have = true
	*d.lastEnd = c.Req.Off + n
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
