package pfs

import (
	"fmt"
	"slices"
	"sort"
	"sync"
)

// Piece is Bytes as the bytes [Off, End()) of an address space: a file's,
// in the store's index and in what a lend read hands out, or an array's, in
// a view of one (mpi.View). It is the one form of "bytes at an offset" on the
// read path, passed down unchanged. Whoever holds a piece of stored bytes
// never writes through it: it is the buffer a writer handed over, or a
// sub-slice of one.
type Piece struct {
	Off   int64
	Bytes []byte
}

// End returns the offset just past the piece's last byte.
func (p Piece) End() int64 { return p.Off + int64(len(p.Bytes)) }

// PieceAt returns the index of the first of pieces, ascending and disjoint,
// that ends past off: the one that holds off if any does. It is len(pieces)
// if none does.
func PieceAt(pieces []Piece, off int64) int {
	return sort.Search(len(pieces), func(k int) bool { return pieces[k].End() > off })
}

// CopyPieces fills dst with the bytes at offset off of the address space
// pieces share, searching from pieces[i] on, and returns the index of the
// piece that held dst's last byte: where a search for a later offset starts,
// so a caller copying ascending ranges walks the pieces once. It panics if
// the pieces do not hold every byte of the range.
func CopyPieces(dst []byte, pieces []Piece, i int, off int64) int {
	for len(dst) > 0 {
		for i < len(pieces) && off >= pieces[i].End() {
			i++
		}
		if i == len(pieces) || off < pieces[i].Off {
			panic(fmt.Sprintf("pfs: no lent piece holds offset %d", off))
		}
		n := copy(dst, pieces[i].Bytes[off-pieces[i].Off:])
		dst, off = dst[n:], off+int64(n)
	}
	return i
}

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
// stored memory, read-only, to a reader that brings no buffer of its own:
// the index's own pieces, cut to the range.
type ByteStore struct {
	mu   sync.Mutex
	ext  []Piece // ascending by Off
	size int64
}

// NewByteStore returns an empty store.
func NewByteStore() *ByteStore {
	return &ByteStore{}
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
	w := Piece{off, data[:n:n]}
	s.mu.Lock()
	defer s.mu.Unlock()
	s.size = max(s.size, w.End())
	if k := len(s.ext); k == 0 || s.ext[k-1].End() <= off {
		s.ext = append(s.ext, w) // files grow in offset order: the common case
		return
	}
	// ext[i:j] are the extents the write overlaps. What survives of them is
	// the head of the first and the tail of the last.
	i := PieceAt(s.ext, off)
	j := i + sort.Search(len(s.ext)-i, func(k int) bool { return s.ext[i+k].Off >= w.End() })
	var buf [3]Piece
	repl := buf[:0]
	if i < j && s.ext[i].Off < off {
		first, keep := s.ext[i], off-s.ext[i].Off
		repl = append(repl, Piece{first.Off, first.Bytes[:keep:keep]})
	}
	repl = append(repl, w)
	if i < j && s.ext[j-1].End() > w.End() {
		last := s.ext[j-1]
		repl = append(repl, Piece{w.End(), last.Bytes[w.End()-last.Off:]})
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
	for i := PieceAt(s.ext, off); i < len(s.ext) && s.ext[i].Off < end; i++ {
		e := s.ext[i]
		if e.Off > pos {
			clear(buf[pos-off : e.Off-off])
			pos = e.Off
		}
		pos += int64(copy(buf[pos-off:], e.Bytes[pos-e.Off:]))
	}
	clear(buf[pos-off:])
}

// LendAt appends to pieces the file's bytes [off, off+n) in order, each at
// its file offset: the covering extents themselves, capped with [:n:n], and a
// hole as fresh zeros, so a range inside one extent is one piece and no copy.
// The pieces are read-only (DESIGN.md §13) and stay valid whatever the file
// does next: a write re-slices the index, never the bytes.
func (s *ByteStore) LendAt(pieces []Piece, off, n int64) []Piece {
	if off < 0 {
		panic("pfs: negative offset")
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	end := off + n
	pos := off // pieces cover [off, pos)
	for i := PieceAt(s.ext, off); pos < end && i < len(s.ext) && s.ext[i].Off < end; i++ {
		e := s.ext[i]
		if e.Off > pos {
			pieces = append(pieces, Piece{pos, make([]byte, e.Off-pos)})
			pos = e.Off
		}
		stop := min(e.End(), end)
		pieces = append(pieces, Piece{pos, e.Bytes[pos-e.Off : stop-e.Off : stop-e.Off]})
		pos = stop
	}
	if pos < end {
		pieces = append(pieces, Piece{pos, make([]byte, end-pos)})
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
