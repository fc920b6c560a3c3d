package castore

import (
	"cmp"
	"fmt"
	"math"
	"slices"

	"repro/internal/obs"
	"repro/internal/pfs"
)

// Store is one rank's handle on the content-addressed checkpoint store.
//
// Chunks live in append-only container files, one per (data server, rank):
// a rank opens each container once per run and appends chunk payloads, so
// the per-chunk cost is a data transfer, not a metadata transaction. On
// volumes that support placement (pfs.PlacedCreator) each container is
// pinned to one data server and every chunk is written to the containers
// of k distinct servers chosen by its content hash; on volumes without
// independent data servers (XFS, node-local disks) there is a single
// unplaced container per rank and the replica count degrades to one.
//
// Dedup is rank-local and generation-windowed: a chunk whose key was
// stored by this rank within the last Retain generations is not written
// again — the new generation's manifest references the existing replicas
// (containers are append-only, so old offsets stay valid). A re-dump of a
// generation the store has already seen (scrub found damage) bypasses the
// index entirely and writes every chunk fresh: the index may point into
// the damaged bytes, and dedup against them would rebuild the same
// corruption.
type Store struct {
	fs  pfs.FileSystem
	opt Options

	// The volume's placement capabilities, resolved through the wrapper
	// chain once (nil on a volume without data servers of its own).
	rv     pfs.ReplicaVolume
	placer pfs.PlacementRestorer

	nsrv int // placed data servers (0: unplaced volume)
	reps int // effective replica count

	gen     int
	maxGen  int
	haveGen bool
	force   bool // re-dump: bypass dedup for this generation

	index map[Key]idxEntry
	heads map[containerKey]*container // write handles, append offsets
	reads map[containerKey]pfs.File   // read-only handles opened on demand
	lend  pfs.Lend                    // Get's lend read, reused
	order []Rep                       // orderReps' result, reused

	// deferSink, when set, is offered every write completion; returning
	// true absorbs it (write-behind: the caller settles at drain time).
	// Otherwise Put advances the caller's clock to the completion.
	deferSink func(end float64) bool

	stats Stats
}

// Options configures a rank's Store.
type Options struct {
	Rank        int
	Replicas    int     // desired replicas per chunk (clamped to the volume)
	Retain      int     // dedup window in generations (<=0: unlimited)
	Params      Params  // chunker bounds
	ReadTimeout float64 // per-replica read deadline (<=0: default 30s)
}

// Stats is the store's cumulative accounting (single rank).
type Stats struct {
	ChunkPuts     int64
	ChunkHits     int64
	LogicalBytes  int64 // raw bytes presented to Put
	PhysicalBytes int64 // payload bytes written, summed over replicas
	DedupedBytes  int64 // raw bytes elided by dedup hits
	ChunkGets     int64
	Failovers     int64 // read attempts rerouted off a failed replica
}

type idxEntry struct {
	gen int
	ref ChunkRef
}

type container struct {
	f   pfs.File
	off int64
}

// defaultReadTimeout bounds one replica read attempt when the caller set
// no explicit budget: generous against load, small against a dead server's
// never-completing request.
const defaultReadTimeout = 30.0

// New builds a rank's store on fs (typically the wrapped, observed file
// system, so container traffic is counted like any other I/O).
func New(fs pfs.FileSystem, opt Options) *Store {
	if opt.Replicas < 1 {
		opt.Replicas = 1
	}
	if opt.ReadTimeout <= 0 {
		opt.ReadTimeout = defaultReadTimeout
	}
	opt.Params = opt.Params.normalized()
	s := &Store{
		fs:    fs,
		opt:   opt,
		index: make(map[Key]idxEntry),
		heads: make(map[containerKey]*container),
		reads: make(map[containerKey]pfs.File),
	}
	s.placer, _ = pfs.As[pfs.PlacementRestorer](fs)
	if s.rv, _ = pfs.As[pfs.ReplicaVolume](fs); s.rv != nil {
		s.nsrv = s.rv.NumDataServers()
	}
	s.reps = opt.Replicas
	if s.nsrv == 0 {
		s.reps = 1 // one unplaced container per rank; replicas would alias
	} else if s.reps > s.nsrv {
		s.reps = s.nsrv
	}
	return s
}

// Params returns the normalized chunker bounds in use.
func (s *Store) Params() Params { return s.opt.Params }

// Replicas returns the effective replica count after volume clamping.
func (s *Store) Replicas() int { return s.reps }

// Stats returns the cumulative accounting.
func (s *Store) Stats() Stats { return s.stats }

// SetDeferSink installs the write-behind hook: fn is offered every write
// completion and absorbs it by returning true. Pass nil for synchronous
// operation.
func (s *Store) SetDeferSink(fn func(end float64) bool) { s.deferSink = fn }

// BeginGeneration starts writing generation gen and reports whether this
// is a re-dump (the store has seen gen before): re-dumps force every chunk
// to be written fresh, since the index may reference damaged bytes.
func (s *Store) BeginGeneration(gen int) (force bool) {
	force = s.haveGen && gen <= s.maxGen
	if gen > s.maxGen || !s.haveGen {
		s.maxGen = gen
	}
	s.haveGen = true
	s.gen = gen
	s.force = force
	return force
}

// containerKey is the chunk container of (server, rank); server -1 is the
// unplaced per-rank container.
type containerKey struct{ server, rank int }

// name is the container's file name.
func (k containerKey) name() string {
	if k.server < 0 {
		return fmt.Sprintf("cas/r%d", k.rank)
	}
	return fmt.Sprintf("cas/s%d.r%d", k.server, k.rank)
}

// head returns the rank's append handle for server's container, opening or
// creating it on first use.
func (s *Store) head(c pfs.Client, server int) (*container, error) {
	k := containerKey{server, s.opt.Rank}
	if h, ok := s.heads[k]; ok {
		return h, nil
	}
	name := k.name()
	var (
		f   pfs.File
		err error
		off int64
	)
	switch {
	case s.fs.Exists(name): // staged from a previous run: append after it
		s.placeExisting(name, server)
		f, err = s.fs.Open(c, name)
		if err == nil {
			off = f.Size(c)
		}
	case server >= 0:
		f, err = pfs.CreatePlacedOn(s.fs, c, name, server)
	default:
		f, err = s.fs.Create(c, name)
	}
	if err != nil {
		return nil, err
	}
	h := &container{f: f, off: off}
	s.heads[k] = h
	return h, nil
}

// readHandle returns a handle for reading (rank, server)'s container,
// reusing the write handle when this rank owns it.
func (s *Store) readHandle(c pfs.Client, server, rank int) (pfs.File, error) {
	k := containerKey{server, rank}
	if h, ok := s.heads[k]; ok {
		return h.f, nil
	}
	if f, ok := s.reads[k]; ok {
		return f, nil
	}
	name := k.name()
	s.placeExisting(name, server)
	f, err := s.fs.Open(c, name)
	if err != nil {
		return pfs.File{}, err
	}
	s.reads[k] = f
	return f, nil
}

// placeExisting re-asserts a placed file's data server before it is opened:
// out-of-band staging copies bytes but loses layout, and the placement is
// deterministic from the name. Unplaced files (server < 0) and volumes
// without placement are left alone.
func (s *Store) placeExisting(name string, server int) {
	if server >= 0 && s.placer != nil {
		s.placer.PlaceExisting(name, server)
	}
}

// serverDead reports whether a data server is already failed at the
// caller's current virtual time (placement and routing skip it). A server
// that fails later is not predicted — the read path's deadline catches it.
func (s *Store) serverDead(c pfs.Client, server int) bool {
	if s.rv == nil || server < 0 {
		return false
	}
	return s.rv.DataServerFailAt(server) <= c.Proc.Now()
}

// placement returns up to s.reps target servers for key: consecutive
// servers starting at the content hash, preferring ones not known dead.
// On an unplaced volume it returns the single pseudo-server -1.
func (s *Store) placement(c pfs.Client, key Key) []int {
	if s.nsrv == 0 {
		return []int{-1}
	}
	first := int(key.Sum % uint64(s.nsrv))
	var live, dead []int
	for j := 0; j < s.nsrv && len(live) < s.reps; j++ {
		srv := (first + j) % s.nsrv
		if s.serverDead(c, srv) {
			dead = append(dead, srv)
		} else {
			live = append(live, srv)
		}
	}
	for len(live) < s.reps && len(dead) > 0 {
		live = append(live, dead[0]) // better a doomed attempt than none
		dead = dead[1:]
	}
	return live
}

// Holds reports whether a Put of key in the current generation is a dedup
// hit: the rank stored the chunk within the retention window, and the
// generation is not a re-dump. It is Put's own hit test, so a caller can ask
// ahead of the Put what the Put will decide.
func (s *Store) Holds(key Key) bool {
	if s.force {
		return false
	}
	e, ok := s.index[key]
	return ok && (s.opt.Retain <= 0 || e.gen > s.gen-s.opt.Retain)
}

// Put stores one raw chunk under key, which must be KeyOf(raw) — an argument
// so that a caller presenting an unchanged array again (the next generation,
// a re-dump) supplies the key it derived the first time. Every decision and
// every statistic stays here. pack produces the payload actually written
// (the codec-compressed form; return raw for no codec) and is only invoked
// on a dedup miss, so a hit skips both the write and the compression cost.
// Dedup reuses a chunk this rank stored within the retention window;
// re-dump generations bypass the index.
func (s *Store) Put(c pfs.Client, raw []byte, key Key, pack func() []byte) (ChunkRef, error) {
	if key.N != uint32(len(raw)) {
		panic(fmt.Sprintf("castore: Put of a %d-byte chunk under the key of a %d-byte one", len(raw), key.N))
	}
	s.stats.ChunkPuts++
	s.stats.LogicalBytes += int64(len(raw))
	if s.Holds(key) {
		e := s.index[key]
		e.gen = s.gen
		s.index[key] = e
		s.stats.ChunkHits++
		s.stats.DedupedBytes += int64(len(raw))
		obs.RecordChunkPut(c.Proc, int64(len(raw)), 0, true)
		return e.ref, nil
	}
	payload := pack()
	ref := ChunkRef{Key: key, Raw: int64(len(raw)), Phys: int64(len(payload))}
	maxEnd := c.Proc.Now()
	for _, srv := range s.placement(c, key) {
		h, err := s.head(c, srv)
		if err != nil {
			return ChunkRef{}, err
		}
		off := h.off
		end := pfs.WriteAtAsync(h.f, c, payload, off)
		h.off += int64(len(payload))
		if math.IsInf(end, 1) {
			// The server died under the write: the request never
			// completes, so this replica does not exist. Reroute by
			// simply not recording it.
			s.stats.Failovers++
			obs.RecordChunkGet(c.Proc, 1)
			continue
		}
		if end > maxEnd {
			maxEnd = end
		}
		ref.Reps = append(ref.Reps, Rep{Server: srv, Rank: s.opt.Rank, Off: off})
		s.stats.PhysicalBytes += int64(len(payload))
	}
	if len(ref.Reps) == 0 {
		return ChunkRef{}, fmt.Errorf("castore: no live replica target for chunk %x:%d", key.Sum, key.N)
	}
	if s.deferSink == nil || !s.deferSink(maxEnd) {
		c.Proc.AdvanceTo(maxEnd)
	}
	obs.RecordChunkPut(c.Proc, int64(len(raw)), ref.Phys*int64(len(ref.Reps)), false)
	s.index[key] = idxEntry{gen: s.gen, ref: ref}
	return ref, nil
}

// ReadError reports that every replica of a chunk (or named object) failed.
type ReadError struct {
	Name     string // object name, or "chunk <sum>:<n>"
	Attempts int
}

func (e *ReadError) Error() string {
	return fmt.Sprintf("castore: %s: all %d replicas failed", e.Name, e.Attempts)
}

// orderReps sorts candidate replicas for a read: live servers first,
// least-loaded (earliest device FreeAt) first among them, known-dead
// servers last. Ties break on server index for determinism. The result is
// the store's scratch, good until the next call.
func (s *Store) orderReps(c pfs.Client, reps []Rep) []Rep {
	s.order = append(s.order[:0], reps...)
	loadOf := func(r Rep) (dead bool, load float64) {
		if s.rv == nil || r.Server < 0 {
			return false, 0
		}
		if s.serverDead(c, r.Server) {
			return true, 0
		}
		return false, s.rv.DataServerFreeAt(r.Server)
	}
	slices.SortStableFunc(s.order, func(a, b Rep) int {
		da, la := loadOf(a)
		db, lb := loadOf(b)
		switch {
		case da != db && da:
			return 1
		case da != db:
			return -1
		case la != lb:
			return cmp.Compare(la, lb)
		}
		return cmp.Compare(a.Server, b.Server)
	})
	return s.order
}

// readRounds bounds the deadline-escalation retry loop of Get/GetNamed:
// each round doubles the per-replica deadline, so a slow-but-live replica
// is distinguished from a dead one by giving it a longer second chance —
// the same shape as the MPI-IO retry policy's timeout escalation.
const readRounds = 6

// Get fetches one chunk's stored payload, routing to the least-loaded live
// replica and failing over on per-replica read deadlines — a dead data
// server costs a timeout and a reroute, never an unbounded wait. A
// deadline missed on a live replica is retried with a doubled deadline
// rather than counted as a failover. The caller decompresses and
// re-derives the content key, so a corrupted payload is detected there.
// The payload is lent (pfs.Lend) and read-only: the container's own bytes
// when one write stored them, else a copy of the pieces — the caller only
// decodes it.
func (s *Store) Get(c pfs.Client, ref ChunkRef) ([]byte, error) {
	s.stats.ChunkGets++
	s.lend.N = ref.Phys
	// Every replica on a known-dead server is a reroute, whether it is
	// attempted and times out or the router skips it outright.
	failovers := 0
	for _, rep := range ref.Reps {
		if s.serverDead(c, rep.Server) {
			failovers++
		}
	}
	timeout := s.opt.ReadTimeout
	for round := 0; round < readRounds; round++ {
		for _, rep := range s.orderReps(c, ref.Reps) {
			if s.serverDead(c, rep.Server) {
				continue
			}
			f, err := s.readHandle(c, rep.Server, rep.Rank)
			if err != nil {
				continue
			}
			if err := pfs.LendAtDeadline(f, c, &s.lend, rep.Off, c.Proc.Now()+timeout); err != nil {
				continue
			}
			s.stats.Failovers += int64(failovers)
			obs.RecordChunkGet(c.Proc, failovers)
			return pfs.LentRange(s.lend.Pieces, rep.Off, ref.Phys), nil
		}
		timeout *= 2
	}
	s.stats.Failovers += int64(failovers)
	obs.RecordChunkGet(c.Proc, failovers)
	return nil, &ReadError{
		Name:     fmt.Sprintf("chunk %x:%d", ref.Key.Sum, ref.Key.N),
		Attempts: len(ref.Reps),
	}
}

// namedPlacement maps a fixed object name to its replica servers (FNV-1a
// over the name), so readers locate replicas without any index.
func (s *Store) namedPlacement(name string) []int {
	if s.nsrv == 0 {
		return []int{-1}
	}
	h := uint64(14695981039346656037)
	for i := 0; i < len(name); i++ {
		h = (h ^ uint64(name[i])) * 1099511628211
	}
	out := make([]int, s.reps)
	for j := range out {
		out[j] = (int(h%uint64(s.nsrv)) + j) % s.nsrv
	}
	return out
}

// PutNamed stores a small fixed-name object (a generation manifest)
// replicated across the volume like chunks are — one placed copy per
// replica server — so a dead data server cannot make the manifest
// unreadable. Writes are synchronous: manifests gate generation validity.
func (s *Store) PutNamed(c pfs.Client, name string, data []byte) error {
	maxEnd := c.Proc.Now()
	wrote := 0
	for j, srv := range s.namedPlacement(name) {
		rep := fmt.Sprintf("%s.rep%d", name, j)
		var (
			f   pfs.File
			err error
		)
		if srv >= 0 {
			f, err = pfs.CreatePlacedOn(s.fs, c, rep, srv)
		} else {
			f, err = s.fs.Create(c, rep)
		}
		if err != nil {
			return err
		}
		end := pfs.WriteAtAsync(f, c, data, 0)
		f.Close(c)
		if math.IsInf(end, 1) {
			continue // replica lost to a dead server; others remain
		}
		if end > maxEnd {
			maxEnd = end
		}
		wrote++
	}
	if wrote == 0 {
		return fmt.Errorf("castore: no live replica target for %q", name)
	}
	c.Proc.AdvanceTo(maxEnd)
	return nil
}

// GetNamed fetches a named object with the same liveness-ordered failover
// as Get. A missing object (never written) is an error.
func (s *Store) GetNamed(c pfs.Client, name string) ([]byte, error) {
	servers := s.namedPlacement(name)
	reps := make([]Rep, len(servers))
	for j, srv := range servers {
		reps[j] = Rep{Server: srv, Rank: j} // Rank reused as replica ordinal
	}
	// Dead or absent replicas are reroutes; a live replica missing a
	// deadline is retried with escalation like Get, not counted.
	failed := 0
	for _, rep := range reps {
		if s.serverDead(c, rep.Server) || !s.fs.Exists(fmt.Sprintf("%s.rep%d", name, rep.Rank)) {
			failed++
		}
	}
	timeout := s.opt.ReadTimeout
	for round := 0; round < readRounds; round++ {
		for _, rep := range s.orderReps(c, reps) {
			repName := fmt.Sprintf("%s.rep%d", name, rep.Rank)
			if s.serverDead(c, rep.Server) || !s.fs.Exists(repName) {
				continue
			}
			s.placeExisting(repName, rep.Server)
			f, err := s.fs.Open(c, repName)
			if err != nil {
				continue
			}
			buf := make([]byte, f.Size(c))
			err = pfs.ReadAtDeadline(f, c, buf, 0, c.Proc.Now()+timeout)
			f.Close(c)
			if err != nil {
				continue
			}
			if failed > 0 {
				s.stats.Failovers += int64(failed)
				obs.RecordChunkGet(c.Proc, failed)
			}
			return buf, nil
		}
		timeout *= 2
	}
	return nil, &ReadError{Name: name, Attempts: len(servers)}
}
