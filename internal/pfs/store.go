package pfs

import "sync"

// storePageSize is the allocation granule of ByteStore.
const storePageSize = 64 * 1024

// ByteStore is a sparse, growable in-memory byte container with
// positional reads and writes. It holds the *contents* of simulated files
// so that the I/O layers above can be verified end-to-end; it has no
// timing behaviour of its own.
type ByteStore struct {
	mu    sync.Mutex
	pages map[int64][]byte // page index -> page (allocated lazily)
	size  int64
}

// NewByteStore returns an empty store.
func NewByteStore() *ByteStore {
	return &ByteStore{pages: make(map[int64][]byte)}
}

// WriteAt stores data at offset off, extending the logical size if needed.
func (s *ByteStore) WriteAt(data []byte, off int64) {
	if off < 0 {
		panic("pfs: negative offset")
	}
	if len(data) == 0 {
		return
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	end := off + int64(len(data))
	if end > s.size {
		s.size = end
	}
	pos := off
	rem := data
	for len(rem) > 0 {
		pageIdx := pos / storePageSize
		pageOff := pos % storePageSize
		page, ok := s.pages[pageIdx]
		if !ok {
			if pageOff == 0 && len(rem) >= storePageSize {
				// The write covers the whole missing page: clone via
				// append, which skips zeroing memory that is immediately
				// overwritten (large streaming writes hit this path for
				// nearly every page).
				s.pages[pageIdx] = append([]byte(nil), rem[:storePageSize]...)
				rem = rem[storePageSize:]
				pos += storePageSize
				continue
			}
			page = make([]byte, storePageSize)
			s.pages[pageIdx] = page
		}
		n := copy(page[pageOff:], rem)
		rem = rem[n:]
		pos += int64(n)
	}
}

// ReadAt fills buf from offset off. Unwritten regions (holes, or space past
// the logical size) read as zero bytes, matching sparse-file semantics.
func (s *ByteStore) ReadAt(buf []byte, off int64) {
	if off < 0 {
		panic("pfs: negative offset")
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	pos := off
	rem := buf
	for len(rem) > 0 {
		pageIdx := pos / storePageSize
		pageOff := pos % storePageSize
		page, ok := s.pages[pageIdx]
		var n int
		if ok {
			n = copy(rem, page[pageOff:])
		} else {
			n = len(rem)
			if max := int(storePageSize - pageOff); n > max {
				n = max
			}
			clear(rem[:n])
		}
		rem = rem[n:]
		pos += int64(n)
	}
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

// Truncate resets the store to empty.
func (s *ByteStore) Truncate() {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.pages = make(map[int64][]byte)
	s.size = 0
}
