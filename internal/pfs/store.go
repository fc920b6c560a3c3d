package pfs

import (
	"slices"
	"sort"
	"sync"
)

// extent is data as the file's bytes [off, off+len(data)). The store never
// writes through data: it is the buffer a writer handed over, or a sub-slice
// of one.
type extent struct {
	off  int64
	data []byte
}

func (e extent) end() int64 { return e.off + int64(len(e.data)) }

// ByteStore is a sparse, growable in-memory byte container with
// positional reads and writes. It holds the *contents* of simulated files
// so that the I/O layers above can be verified end-to-end; it has no
// timing behaviour of its own.
//
// The store keeps what it is given: a write adopts the caller's buffer by
// reference, under the rule that a payload buffer is write-once (DESIGN.md
// §13) — whoever hands a buffer to WriteAt never changes it again, or clones
// it first. The file is a sorted index of non-overlapping, non-empty
// extents; a write re-slices the neighbours it overlaps and drops the extents
// it shadows completely, so an overwritten buffer is released, not pinned.
// ReadAt, Bytes and Snapshot copy out; LendAt is the one method that returns
// stored memory, read-only, to a reader that brings no buffer of its own.
type ByteStore struct {
	mu   sync.Mutex
	ext  []extent // ascending by off
	size int64
}

// NewByteStore returns an empty store.
func NewByteStore() *ByteStore {
	return &ByteStore{}
}

// firstEndingAfter returns the index of the first extent that holds a byte at
// or past off, len(s.ext) if none does.
func (s *ByteStore) firstEndingAfter(off int64) int {
	return sort.Search(len(s.ext), func(k int) bool { return s.ext[k].end() > off })
}

// WriteAt makes data the file's bytes at offset off, extending the logical
// size if needed. It keeps data — no copy — so the caller must not modify it
// afterwards.
func (s *ByteStore) WriteAt(data []byte, off int64) {
	if off < 0 {
		panic("pfs: negative offset")
	}
	n := len(data)
	if n == 0 {
		return
	}
	// data[:n:n]: the store owns the bytes it was given, not the spare
	// capacity behind them.
	w := extent{off, data[:n:n]}
	s.mu.Lock()
	defer s.mu.Unlock()
	s.size = max(s.size, w.end())
	if k := len(s.ext); k == 0 || s.ext[k-1].end() <= off {
		s.ext = append(s.ext, w) // files grow in offset order: the common case
		return
	}
	// ext[i:j] are the extents the write overlaps. What survives of them is
	// the head of the first and the tail of the last.
	i := s.firstEndingAfter(off)
	j := i + sort.Search(len(s.ext)-i, func(k int) bool { return s.ext[i+k].off >= w.end() })
	var buf [3]extent
	repl := buf[:0]
	if i < j && s.ext[i].off < off {
		first, keep := s.ext[i], off-s.ext[i].off
		repl = append(repl, extent{first.off, first.data[:keep:keep]})
	}
	repl = append(repl, w)
	if i < j && s.ext[j-1].end() > w.end() {
		last := s.ext[j-1]
		repl = append(repl, extent{w.end(), last.data[w.end()-last.off:]})
	}
	// Replace zeroes the slots it vacates, so a shadowed buffer is not kept
	// alive by the index's spare capacity.
	s.ext = slices.Replace(s.ext, i, j, repl...)
}

// ReadAt fills buf from offset off. Unwritten regions (holes, or space past
// the logical size) read as zero bytes, matching sparse-file semantics.
func (s *ByteStore) ReadAt(buf []byte, off int64) {
	if off < 0 {
		panic("pfs: negative offset")
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	end := off + int64(len(buf))
	pos := off // buf is filled up to here
	for i := s.firstEndingAfter(off); i < len(s.ext) && s.ext[i].off < end; i++ {
		e := s.ext[i]
		if e.off > pos {
			clear(buf[pos-off : e.off-off])
			pos = e.off
		}
		pos += int64(copy(buf[pos-off:], e.data[pos-e.off:]))
	}
	clear(buf[pos-off:])
}

// LendAt appends to pieces the file's bytes [off, off+n) in order: the
// covering extents themselves, capped with [:n:n], and a hole as fresh
// zeros, so a range inside one extent is one piece and no copy. The pieces
// are read-only (DESIGN.md §13) and stay valid whatever the file does next:
// a write re-slices the index, never the bytes.
func (s *ByteStore) LendAt(pieces [][]byte, off, n int64) [][]byte {
	if off < 0 {
		panic("pfs: negative offset")
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	end := off + n
	pos := off // pieces cover [off, pos)
	for i := s.firstEndingAfter(off); pos < end && i < len(s.ext) && s.ext[i].off < end; i++ {
		e := s.ext[i]
		if e.off > pos {
			pieces = append(pieces, make([]byte, e.off-pos))
			pos = e.off
		}
		stop := min(e.end(), end)
		pieces = append(pieces, e.data[pos-e.off:stop-e.off:stop-e.off])
		pos = stop
	}
	if pos < end {
		pieces = append(pieces, make([]byte, end-pos))
	}
	return pieces
}

// Size returns the logical file size (highest written offset + 1).
func (s *ByteStore) Size() int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.size
}

// Bytes returns a copy of the store's full contents [0, Size).
func (s *ByteStore) Bytes() []byte {
	out := make([]byte, s.Size())
	s.ReadAt(out, 0)
	return out
}

// Truncate resets the store to empty. The index keeps its capacity and none
// of the buffers.
func (s *ByteStore) Truncate() {
	s.mu.Lock()
	defer s.mu.Unlock()
	clear(s.ext)
	s.ext = s.ext[:0]
	s.size = 0
}
