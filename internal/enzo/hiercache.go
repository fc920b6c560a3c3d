package enzo

import (
	"bytes"
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
// its lifetime — the packed form of its field partitions.
type hierEntry struct {
	// hierarchy builds on the first call and returns the same pointer to
	// every caller, however many first callers race.
	hierarchy func() *amr.Hierarchy

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
	e := &hierEntry{hierarchy: sync.OnceValue(func() *amr.Hierarchy {
		return amr.BuildHierarchy(cfg.Dims, cfg.NParticles, cfg.PreRefine, cfg.Threshold, cfg.Seed)
	})}
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

// filePackedIC files a copy of blob as the container of partition k under
// (np, codec), discarding the table of any other (np, codec) first. A copy,
// because Pack's buffer has room for the array stored raw and a kept slice
// pins all of it: the table would hold the problem's size, not its packed
// size, for the life of the process.
func (e *hierEntry) filePackedIC(np int, codec uint8, k icKey, blob []byte) {
	blob = bytes.Clone(blob)
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.np != np || e.codec != codec { // np is never 0: the first filing lands here too
		e.np, e.codec, e.blobs = np, codec, make(map[icKey][]byte)
	}
	e.blobs[k] = blob
}
