package obs

import (
	"slices"

	"repro/internal/pfs"
)

// CallRecord is one entry of the tracer's call log: a pfs call as the tap saw
// it, kept as scalars. It never holds the request's buffer or pieces, nor the
// calling Proc, so the log pins no memory of the run it describes.
type CallRecord struct {
	Op     string // "create", "open", "close", "read" or "write"
	File   string
	Node   int
	Offset int64
	Length int64   // the request's length; 0 for a metadata call
	Start  float64 // the caller's clock before the call
	End    float64 // the caller's clock after it: a Behind request's issue end
	Done   float64 // the device completion the call returned
	// Failed marks a failed create or open, or a request that missed its
	// deadline and moved no bytes.
	Failed bool
}

// Moved returns the bytes the call moved: its length, or 0 when it failed.
func (c CallRecord) Moved() int64 {
	if c.Failed {
		return 0
	}
	return c.Length
}

// Hidden returns the device time past the caller's return — 0 for every
// synchronous or failed call, Done-End for a deferred (write-behind,
// read-ahead) one.
func (c CallRecord) Hidden() float64 {
	if h := c.Done - c.End; h > 0 && !c.Failed {
		return h
	}
	return 0
}

// Calls returns the tracer's call log: one record per pfs call of an attached
// rank, failed ones included, in the order the tap saw them. Like SpansByRank
// it is the tracer's own slice, read-only and valid once the engine has
// stopped.
func (t *Tracer) Calls() []CallRecord {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.calls
}

// CodecFileStats tallies transparently compressed transfers on one file:
// logical bytes are the uncompressed array sizes the application moved,
// physical bytes the container bytes that actually hit the file system.
type CodecFileStats struct {
	File            string
	LogicalRead     int64
	PhysicalRead    int64
	LogicalWritten  int64
	PhysicalWritten int64
}

// CodecFiles returns the per-file compression tallies in first-touch order
// (empty when no compressed transfer was reported).
func (t *Tracer) CodecFiles() []CodecFileStats {
	t.mu.Lock()
	defer t.mu.Unlock()
	return slices.Clone(t.codecFiles)
}

// tracedFS is the tap WrapFS returns. It embeds the tap's concrete type, not
// pfs.FileSystem, so Unwrap and CreatePlaced stay visible to the capability
// walk, and adds the one capability the tracer receives: the codec accounting.
type tracedFS struct {
	*pfs.TapFS
	t *Tracer
}

// RecordCodecBytes implements pfs.CodecReporter: the application layer
// reports every compressed array transfer, and the tracer tallies logical vs
// physical bytes per file.
func (f tracedFS) RecordCodecBytes(file string, write bool, logical, physical int64) {
	t := f.t
	t.mu.Lock()
	defer t.mu.Unlock()
	i := slices.IndexFunc(t.codecFiles, func(cs CodecFileStats) bool { return cs.File == file })
	if i < 0 {
		i = len(t.codecFiles)
		t.codecFiles = append(t.codecFiles, CodecFileStats{File: file})
	}
	cs := &t.codecFiles[i]
	if write {
		cs.LogicalWritten += logical
		cs.PhysicalWritten += physical
	} else {
		cs.LogicalRead += logical
		cs.PhysicalRead += physical
	}
}
