package enzo

import (
	"sync"

	"repro/internal/amr"
)

// hierCache memoizes built hierarchies across runs: initial conditions are
// deterministic in the Config, immutable once built, and expensive for the
// large problems (AMR128 holds 556 MB and takes 0.7–1.0 s to generate on a
// 2-vCPU Xeon, BenchmarkBuildHierarchy/AMR128 in internal/amr).
// Entries are *hierEntry, keyed by hierKey.
var hierCache sync.Map

// hierKey is everything of a Config that the hierarchy is a function of.
type hierKey struct {
	dims       [3]int
	nParticles int
	preRefine  int
	threshold  float64
	seed       int64
}

// hierEntry is one cached problem: the hierarchy, and beside it — sharing
// its lifetime — what is derived from its immutable arrays: their field
// hashes and the packed form of their partitions.
type hierEntry struct {
	// hierarchy builds on the first call and returns the same pointer to
	// every caller, however many first callers race.
	hierarchy func() *amr.Hierarchy

	// fieldHashes[id] returns grid id's chained field hash (fieldsHash),
	// computed on the first call. Set when the hierarchy is built, so every
	// caller of hierarchy sees it; each entry is its own sync.OnceValue, as
	// fleets and parallel tests hash one problem's grids at once.
	fieldHashes []func() uint64

	// Packed initial conditions. A rank's partition of a field of a grid is
	// a pure function of the (immutable) hierarchy, the processor count and
	// the rank; its container is a function of that and the codec. The full
	// key is therefore (hierarchy, np, codec, grid, field, rank): the first
	// selects the entry, the next two the table, icKey the container. Only
	// the most recent (np, codec) is kept — a sweep runs its cases of one
	// decomposition and codec back to back, and a second table would retain
	// another packed copy of the problem for a case that may never return.
	// Guarded like hierCache itself: fleets and parallel tests run several
	// worlds of one problem at once.
	mu    sync.Mutex
	np    int
	codec uint8
	blobs map[icKey][]byte
}

// icKey names one rank's partition of one field of one grid.
type icKey struct{ grid, field, rank int }

// hierEntryFor returns cfg's cache entry, creating it (unbuilt) on first use.
func hierEntryFor(cfg Config) *hierEntry {
	key := hierKey{cfg.Dims, cfg.NParticles, cfg.PreRefine, cfg.Threshold, cfg.Seed}
	if v, ok := hierCache.Load(key); ok {
		return v.(*hierEntry)
	}
	e := new(hierEntry)
	e.hierarchy = sync.OnceValue(func() *amr.Hierarchy {
		h := amr.BuildHierarchy(cfg.Dims, cfg.NParticles, cfg.PreRefine, cfg.Threshold, cfg.Seed)
		e.fieldHashes = make([]func() uint64, len(h.Grids))
		for id, g := range h.Grids {
			e.fieldHashes[id] = sync.OnceValue(func() uint64 { return fieldsHash(g.Fields) })
		}
		return h
	})
	v, _ := hierCache.LoadOrStore(key, e)
	return v.(*hierEntry)
}

// hierEntry returns the rank's problem's cache entry, looked up once.
func (s *Sim) hierEntry() *hierEntry {
	if s.ic == nil {
		s.ic = hierEntryFor(s.cfg)
	}
	return s.ic
}

// fieldHash returns the field hash of grid id when fields are that grid's
// own hierarchy arrays — every one with the same first byte and length, the
// identity View.InPlace tests — and false otherwise: a refined grid (its ID
// is past the hierarchy's), a copy (node-local, compressed, castore, a
// faulted or stale extent) and another grid's array are hashed by the
// caller. The hierarchy is immutable (DESIGN.md §13), so its memory holds
// what it held when the hash was taken. It builds the hierarchy if no one
// has; a run's setup always has.
func (e *hierEntry) fieldHash(id int, fields [][]byte) (uint64, bool) {
	grids := e.hierarchy().Grids
	if id >= len(grids) || len(fields) != len(grids[id].Fields) {
		return 0, false
	}
	for f, b := range fields {
		ic := grids[id].Fields[f]
		if len(b) == 0 || len(b) != len(ic) || &b[0] != &ic[0] {
			return 0, false
		}
	}
	return e.fieldHashes[id](), true
}

// packedIC returns the filed container of partition k under (np, codec), or
// nil when there is none.
func (e *hierEntry) packedIC(np int, codec uint8, k icKey) []byte {
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.np != np || e.codec != codec {
		return nil
	}
	return e.blobs[k]
}

// filePackedIC files blob as the container of partition k under (np,
// codec), discarding the table of any other (np, codec) first. The
// compressor's containers are allocated at their own length, so the table
// holds the problem's packed size, not room for it stored raw.
func (e *hierEntry) filePackedIC(np int, codec uint8, k icKey, blob []byte) {
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.np != np || e.codec != codec { // np is never 0: the first filing lands here too
		e.np, e.codec, e.blobs = np, codec, make(map[icKey][]byte)
	}
	e.blobs[k] = blob
}
