// Package faultfs wraps a pfs.FileSystem with deterministic fault
// injection: silent data corruption on selected writes, dropped (torn)
// writes, and stale reads. It exists to prove that the repository's
// end-to-end verification actually detects storage misbehaviour — a
// verifier that never fails is no verifier.
//
// Injected faults are silent (the device acknowledges the request
// normally), which is exactly the failure class timeouts cannot see and
// scrubbing exists for. Timeout/retry faults are modelled at the device
// layer instead (sim.Server slowdown/fail-after plus
// pfs.StripeFaultInjector); the wrapper carries a request's mode and
// deadline through to it unchanged.
package faultfs

import (
	"strings"
	"sync"

	"repro/internal/pfs"
)

// Mode selects the injected failure.
type Mode int

// Failure modes.
const (
	// CorruptWrite flips one byte of every Nth write's payload before it
	// reaches the store (silent media corruption).
	CorruptWrite Mode = iota
	// DropWrite silently discards every Nth write (a lost write — e.g. a
	// volatile cache that never reached the platter).
	DropWrite
	// TornWrite stores only the first half of every Nth write.
	TornWrite
	// StaleRead serves the previous version of overwritten bytes on every
	// Nth read: the wrapper mirrors all bytes it writes, remembers the old
	// contents whenever a range is overwritten (including whole-file
	// truncation by Create), and overlays those old bytes onto the
	// selected read's buffer. Reads of ranges that were never overwritten
	// are served faithfully. Writes are never altered in this mode.
	StaleRead
)

// Config selects which operations fail.
type Config struct {
	Mode Mode
	// EveryN injects the fault into every Nth write — or, for StaleRead,
	// every Nth read (1 = every one).
	EveryN int64
	// MinBytes restricts faults to operations of at least this size, so
	// tiny metadata writes can be spared when targeting data.
	MinBytes int64
	// FileSubstr restricts injection to files whose name contains this
	// substring (empty = all files).
	FileSubstr string
	// MaxInject stops injecting after this many faults (0 = unlimited),
	// so that a re-dump after detection can succeed deterministically.
	MaxInject int64
}

// shadow is a sparse byte image: data holds values, valid marks which
// offsets have ever been set.
type shadow struct {
	data  []byte
	valid []bool
}

func (s *shadow) ensure(n int64) {
	for int64(len(s.data)) < n {
		s.data = append(s.data, 0)
		s.valid = append(s.valid, false)
	}
}

// FS is the fault-injecting wrapper.
type FS struct {
	inner pfs.FileSystem
	cfg   Config

	mu       sync.Mutex
	writes   int64
	reads    int64
	injected int64
	// mirror tracks, per targeted file, every byte written through this
	// wrapper; stale keeps the previous value of every overwritten byte.
	// Both are only populated in StaleRead mode.
	mirror map[string]*shadow
	stale  map[string]*shadow
}

// Wrap returns a fault-injecting view of fs.
func Wrap(fs pfs.FileSystem, cfg Config) *FS {
	if cfg.EveryN <= 0 {
		cfg.EveryN = 1
	}
	return &FS{inner: fs, cfg: cfg,
		mirror: make(map[string]*shadow), stale: make(map[string]*shadow)}
}

// Injected reports how many faults were injected so far.
func (f *FS) Injected() int64 {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.injected
}

// matchFile reports whether name is a fault target.
func (f *FS) matchFile(name string) bool {
	return f.cfg.FileSubstr == "" || strings.Contains(name, f.cfg.FileSubstr)
}

// Unwrap implements pfs.Wrapper.
func (f *FS) Unwrap() pfs.FileSystem { return f.inner }

// Name implements pfs.FileSystem.
func (f *FS) Name() string { return f.inner.Name() }

// Stats implements pfs.FileSystem.
func (f *FS) Stats() pfs.Stats { return f.inner.Stats() }

// Exists implements pfs.FileSystem.
func (f *FS) Exists(n string) bool { return f.inner.Exists(n) }

// Snapshot implements pfs.FileSystem.
func (f *FS) Snapshot() map[string][]byte { return f.inner.Snapshot() }

// Restore implements pfs.FileSystem.
func (f *FS) Restore(files map[string][]byte) { f.inner.Restore(files) }

// Create implements pfs.FileSystem. In StaleRead mode the truncated file's
// mirrored bytes become stale: a later read of the recreated file may be
// served the previous generation's contents.
func (f *FS) Create(c pfs.Client, name string) (pfs.File, error) {
	inner, err := f.inner.Create(c, name)
	if err != nil {
		return pfs.File{}, err
	}
	f.noteCreate(name)
	return pfs.File{Handle: &faultFile{inner: inner, fs: f}}, nil
}

// CreatePlaced implements pfs.PlacedCreator (plain create when the inner
// file system cannot place), with the same StaleRead truncation bookkeeping
// as Create.
func (f *FS) CreatePlaced(c pfs.Client, name string, server int) (pfs.File, error) {
	inner, err := pfs.CreatePlacedOn(f.inner, c, name, server)
	if err != nil {
		return pfs.File{}, err
	}
	f.noteCreate(name)
	return pfs.File{Handle: &faultFile{inner: inner, fs: f}}, nil
}

// noteCreate records a file (re)creation for StaleRead mode: the truncated
// file's mirrored bytes become the stale image served to later reads.
func (f *FS) noteCreate(name string) {
	if f.cfg.Mode != StaleRead || !f.matchFile(name) {
		return
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	if m := f.mirror[name]; m != nil {
		st := f.stale[name]
		if st == nil {
			st = &shadow{}
			f.stale[name] = st
		}
		st.ensure(int64(len(m.data)))
		for i, ok := range m.valid {
			if ok {
				st.data[i] = m.data[i]
				st.valid[i] = true
			}
		}
	}
	f.mirror[name] = &shadow{}
}

// Open implements pfs.FileSystem.
func (f *FS) Open(c pfs.Client, name string) (pfs.File, error) {
	inner, err := f.inner.Open(c, name)
	if err != nil {
		return pfs.File{}, err
	}
	return pfs.File{Handle: &faultFile{inner: inner, fs: f}}, nil
}

type faultFile struct {
	inner pfs.File
	fs    *FS
}

func (ff *faultFile) Name() string            { return ff.inner.Name() }
func (ff *faultFile) Size(c pfs.Client) int64 { return ff.inner.Size(c) }
func (ff *faultFile) Close(c pfs.Client)      { ff.inner.Close(c) }

// Do implements pfs.Handle: a selected write is injected, everything else
// is the inner request in its own mode. The stale-read overlay and the
// mirror bookkeeping apply only to requests that reached the store — a
// request abandoned at its deadline moved no bytes.
func (ff *faultFile) Do(c pfs.Client, r pfs.Req) (float64, error) {
	name := ff.inner.Name()
	if r.Write && ff.shouldInject(name, r.Len()) {
		return ff.injectWrite(c, r)
	}
	end, err := ff.inner.Do(c, r)
	if err != nil {
		return end, err
	}
	if r.Write {
		ff.fs.noteWrite(name, r.Buf, r.Off)
	} else {
		ff.maybeServeStale(r)
	}
	return end, nil
}

// maybeServeStale overlays previously overwritten bytes onto every Nth
// eligible read in StaleRead mode. The read already charged the device
// normally; only the returned contents lie. For a Behind read the overlay
// applies at issue. A lend read's pieces are the store's own bytes, so the
// overlay goes onto a private copy, which replaces them.
func (ff *faultFile) maybeServeStale(r pfs.Req) {
	f := ff.fs
	if f.cfg.Mode != StaleRead {
		return
	}
	name := ff.inner.Name()
	n := r.Len()
	f.mu.Lock()
	defer f.mu.Unlock()
	if n < f.cfg.MinBytes || !f.matchFile(name) {
		return
	}
	f.reads++
	if f.reads%f.cfg.EveryN != 0 {
		return
	}
	if f.cfg.MaxInject > 0 && f.injected >= f.cfg.MaxInject {
		return
	}
	st := f.stale[name]
	if st == nil {
		return
	}
	buf := r.Buf
	if r.Lend != nil {
		buf = make([]byte, n)
		pfs.CopyPieces(buf, r.Lend.Pieces, 0, r.Off)
	}
	var overlaid int64
	for i := int64(0); i < n; i++ {
		p := r.Off + i
		if p < int64(len(st.valid)) && st.valid[p] {
			buf[i] = st.data[p]
			overlaid++
		}
	}
	if overlaid > 0 {
		f.injected++
		if r.Lend != nil {
			r.Lend.Pieces = append(r.Lend.Pieces[:0], pfs.Piece{Off: r.Off, Bytes: buf})
		}
	}
}

// noteWrite maintains the mirror/stale images for StaleRead mode. It must
// run for every write that reaches the store, injected or not.
func (f *FS) noteWrite(name string, data []byte, off int64) {
	if f.cfg.Mode != StaleRead || !f.matchFile(name) {
		return
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	m := f.mirror[name]
	if m == nil {
		m = &shadow{}
		f.mirror[name] = m
	}
	end := off + int64(len(data))
	m.ensure(end)
	var st *shadow
	for i := off; i < end; i++ {
		if m.valid[i] {
			if st == nil {
				st = f.stale[name]
				if st == nil {
					st = &shadow{}
					f.stale[name] = st
				}
				st.ensure(end)
			}
			st.data[i] = m.data[i]
			st.valid[i] = true
		}
	}
	copy(m.data[off:end], data)
	for i := off; i < end; i++ {
		m.valid[i] = true
	}
}

// shouldInject decides (deterministically, by write ordinal) whether this
// write fails. StaleRead never alters writes.
func (ff *faultFile) shouldInject(name string, n int64) bool {
	f := ff.fs
	if f.cfg.Mode == StaleRead {
		return false
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	if n < f.cfg.MinBytes || !f.matchFile(name) {
		return false
	}
	f.writes++
	if f.writes%f.cfg.EveryN != 0 {
		return false
	}
	if f.cfg.MaxInject > 0 && f.injected >= f.cfg.MaxInject {
		return false
	}
	f.injected++
	return true
}

// injectWrite performs the configured corruption of one selected write. An
// injected write-behind is issued blocking (fault handling is not worth
// modelling asynchronously); a deadline stays in force.
func (ff *faultFile) injectWrite(c pfs.Client, r pfs.Req) (float64, error) {
	if r.Mode == pfs.Behind {
		r.Mode = pfs.Block
	}
	switch data := r.Buf; ff.fs.cfg.Mode {
	case CorruptWrite:
		r.Buf = make([]byte, len(data))
		copy(r.Buf, data)
		r.Buf[len(data)/2] ^= 0xA5
	case DropWrite:
		// The write costs time (the device acknowledged it) but stores
		// nothing: model by writing the existing contents back.
		rd := r
		rd.Write, rd.Buf = false, make([]byte, len(data))
		if end, err := ff.inner.Do(c, rd); err != nil {
			return end, err
		}
		r.Buf = rd.Buf
	case TornWrite:
		if half := data[:len(data)/2]; len(half) > 0 {
			r.Buf = half
		}
	}
	return ff.inner.Do(c, r)
}
