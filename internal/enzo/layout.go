// The checkpoint walk. The paper compares I/O libraries under one access
// strategy — collective access for the regularly partitioned baryon fields,
// block-wise independent access plus a parallel sort (writes) or a position
// redistribution (reads) for the irregular particle arrays, whole-subgrid
// ownership with round-robin restart reads — so that strategy is written
// once here (initial read, dump, restart: top-grid fields → top-grid
// particles → subgrids) and drives a layout: how one container stores a
// rank's field partition, a particle row block and a whole subgrid. Each
// layout's transfers go through the transport (transport.go), which decides
// sync vs deferred and strict vs tolerant; integrity (scrub.go) sits above
// the walk and only calls writeDump/readRestart.
package enzo

import (
	"fmt"

	"repro/internal/amr"
	"repro/internal/castore"
	"repro/internal/compress"
	"repro/internal/core"
	"repro/internal/mpi"
	"repro/internal/obs"
)

// ioPath is what the run drives: one backend's initial-condition and
// checkpoint I/O. walk implements it for every shared-container layout;
// hdf4IO implements it directly, because the original design funnels the
// top grid through processor 0 instead of partitioning the access.
type ioPath interface {
	writeIC(h *amr.Hierarchy) // h is non-nil on rank 0 only
	readInitial()
	writeDump(d int)
	readRestart(d int)
}

// layout is one container format. A new one is one file implementing
// layout, gridReader and dumpWriter, plus a case in layoutFor; deferred
// transfers, tolerant read-backs, scrub and generations come from the
// layers around it.
type layout interface {
	// writeIC stages the initial conditions (untimed setup, collective).
	writeIC(h *amr.Hierarchy)
	openIC() gridReader
	// createDump opens generation d for writing. It runs before the walk,
	// so a layout that must see every array before placing any (the
	// z-directory's batched length exchange) does that work here.
	createDump(d int) dumpWriter
	// openDump opens generation d for reading. nil means a tolerant
	// read-back found the container unreadable on every rank and there is
	// nothing to walk; a layout that can still keep the ranks in step
	// returns a reader yielding zero-filled arrays instead.
	openDump(d int) gridReader
}

// gridReader reads grids out of an open container.
type gridReader interface {
	// field issues the read of this rank's (Block,Block,Block) partition
	// of field fi of a partitioned grid; the returned settle leaves it in
	// p.blocks[fi].
	field(g core.GridMeta, fi int, p *partition) (settle func())
	// rows reads particle rows [lo,hi) of a partitioned grid, as stored:
	// one column per particle array.
	rows(g core.GridMeta, lo, hi int64) amr.ParticleSet
	// subgrid issues the read of a wholly owned subgrid; finish settles it
	// and assembles the grid.
	subgrid(gm core.GridMeta) (finish func() *amr.Grid)
	close()
}

// dumpWriter writes one dump generation into an open container.
type dumpWriter interface {
	// putTopField writes this rank's partition of top-grid field fi.
	putTopField(fi int)
	// putTopRows writes this rank's block of the globally ID-sorted
	// top-grid particle rows.
	putTopRows(g core.GridMeta, sorted []byte)
	// sealTop runs after the top grid's span closed (HDF5 records its
	// rank-0-only top-grid attribute there).
	sealTop()
	// collective reports whether non-owners take part in subgrid writes.
	collective() bool
	// putSubgrid writes a wholly owned subgrid; grid is nil on non-owners.
	putSubgrid(gm core.GridMeta, grid *amr.Grid)
	finish()
}

// layoutFor picks the run's I/O path — the only place that looks at the
// backend, Config.Codec and Config.CAStore to choose one — and sets up the
// state those choices need. HDF4 returns before any of them is read:
// RunSpec.Validate refuses a codec, castore and AsyncIO with it.
func layoutFor(s *Sim) ioPath {
	codec, err := compress.Resolve(s.cfg.Codec) // nil when compression is off
	if err != nil {
		panic(err) // Assemble validates; tests calling newSim directly get the panic
	}
	var lay layout
	switch s.backend {
	case BackendHDF4:
		return hdf4IO{s}
	case BackendMPIIO, BackendMPIIOCB:
		// mpiio-cb routes even the single-owner subgrid arrays through
		// collectives; on node-local disks there is no shared file to
		// aggregate into.
		forceCB := s.backend == BackendMPIIOCB && !s.localMode
		if codec != nil {
			lay = rawzLayout{s, forceCB}
		} else {
			lay = rawLayout{s, forceCB}
		}
	case BackendHDF5:
		lay = h5Layout{s}
	}
	if codec != nil {
		s.z = compress.NewCompressor(codec, compress.DefaultCostModel())
	}
	s.async = s.cfg.AsyncIO
	if s.cfg.CAStore {
		opt := castore.Options{
			Rank:     s.r.Rank(),
			Replicas: s.cfg.Replicas,
			Retain:   s.cfg.Generations, // 0 = unlimited, matching the fallback scan
		}
		if s.cfg.IORetry.Enabled && s.cfg.IORetry.Timeout > 0 {
			// Compose with the retry policy: its per-request deadline also
			// bounds each replica read attempt.
			opt.ReadTimeout = s.cfg.IORetry.Timeout
		}
		s.cas = castore.New(s.fs, opt)
		// Compose with AsyncIO: while a dump is pending, chunk-write
		// completions defer into it and settle at the dump's drain.
		s.cas.SetDeferSink(s.deferCompletion)
		s.chunks = make(map[compress.ArrayID]chunkTable)
		lay = casLayout{lay, s}
	}
	return walk{s, lay}
}

// walk drives a layout through the paper's access strategy.
type walk struct {
	*Sim
	lay layout
}

func (w walk) writeIC(h *amr.Hierarchy) { w.lay.writeIC(h) }

// readInitial reads every grid of the initial conditions block-partitioned
// across all ranks.
func (w walk) readInitial() {
	rd := w.lay.openIC()
	w.top = w.readPartitioned(rd, w.meta.Top(), false).pack()
	for _, g := range w.meta.Subgrids() {
		w.partials = append(w.partials, w.readPartitioned(rd, g, false))
	}
	rd.close()
}

// readPartitioned reads grid g into this rank's partition: its block of
// every field, then a block of particle rows redistributed by position.
// Collective. A restart issues every field before any settles, so the
// read-ahead pipeline drains one field's devices under the next one's
// request exchange or decode; the initial read settles each in turn.
func (w walk) readPartitioned(rd gridReader, g core.GridMeta, restart bool) *partition {
	defer obs.Begin(w.r.Proc(), obs.LayerApp, "grid_read").Attr("grid", fmt.Sprint(g.ID)).End()
	p := &partition{gridID: g.ID, sub: core.FieldSubarray(g, w.pz, w.py, w.px, w.r.Rank())}
	p.blocks = make([]mpi.View, len(amr.FieldNames))
	if restart {
		settles := make([]func(), len(amr.FieldNames))
		for fi := range amr.FieldNames {
			settles[fi] = rd.field(g, fi, p)
		}
		for _, settle := range settles {
			settle()
		}
	} else {
		for fi := range amr.FieldNames {
			rd.field(g, fi, p)()
		}
	}
	if g.NParticles == 0 {
		p.particles = amr.NewParticleSet(0)
		return p
	}
	// Block-wise rows — except where a rank can only read what it wrote
	// itself: initial conditions staged per rank at setup, and dumps on
	// node-local disks.
	lo, hi := core.BlockRange(g.NParticles, w.r.Size(), w.r.Rank())
	switch {
	case restart && w.localMode:
		lo, hi = w.localPartRows[0], w.localPartRows[1]
	case !restart && w.localICRows != nil:
		lo, hi = w.localICRows[g.ID][0], w.localICRows[g.ID][1]
	}
	block := rd.rows(g, lo, hi)
	w.r.CopyCost(int64(block.N * rowSize()))
	p.particles = w.redistributeByPosition(&block, g)
	return p
}

// writeDump writes generation d: collective field writes, the parallel sort
// and block-wise particle writes, then every subgrid by its owner.
func (w walk) writeDump(d int) {
	out := w.lay.createDump(d)
	g := w.meta.Top()
	topSp := obs.Begin(w.r.Proc(), obs.LayerApp, "grid_write").Attr("grid", "0")
	for fi := range amr.FieldNames {
		out.putTopField(fi)
	}
	if g.NParticles > 0 {
		out.putTopRows(g, w.parallelSortByID(&w.top.particles))
	}
	topSp.End()
	out.sealTop()
	// Subgrids: as in the original design, which every port preserves, "each
	// processor writes its own subgrids ... in parallel without
	// communication" — unless the container makes the write collective.
	everyone := out.collective()
	for _, gm := range w.meta.Subgrids() {
		grid := w.owned[gm.ID] // nil on non-owners
		if grid == nil && !everyone {
			continue
		}
		sp := obs.Begin(w.r.Proc(), obs.LayerApp, "grid_write").Attr("grid", fmt.Sprint(gm.ID))
		out.putSubgrid(gm, grid)
		sp.End()
	}
	out.finish()
}

// readRestart restores generation d: the top grid like the initial read,
// then whole subgrids by their restart owners, double-buffered — the next
// grid's read is on the devices before the current one is unpacked.
func (w walk) readRestart(d int) {
	rd := w.lay.openDump(d)
	if rd == nil {
		return
	}
	w.top = w.readPartitioned(rd, w.meta.Top(), true).pack()
	owners := w.restartOwners()
	var finishPrev func() *amr.Grid
	var prevID int
	for _, gm := range w.meta.Subgrids() {
		if owners[gm.ID] != w.r.Rank() {
			continue
		}
		sp := obs.Begin(w.r.Proc(), obs.LayerApp, "grid_read").Attr("grid", fmt.Sprint(gm.ID))
		finish := rd.subgrid(gm)
		sp.End()
		if finishPrev != nil {
			w.owned[prevID] = finishPrev()
		}
		finishPrev, prevID = finish, gm.ID
	}
	if finishPrev != nil {
		w.owned[prevID] = finishPrev()
	}
	rd.close()
}

// newGrid builds an empty in-memory grid from its replicated metadata:
// field and particle array slots for a reader to fill.
func newGrid(gm core.GridMeta) *amr.Grid {
	g := &amr.Grid{
		ID: gm.ID, Level: gm.Level, Parent: gm.Parent, Dims: gm.Dims,
		LeftEdge: gm.LeftEdge, RightEdge: gm.RightEdge,
		Fields: make([][]byte, len(amr.FieldNames)),
	}
	if gm.NParticles > 0 {
		g.Particles = amr.ParticleSet{N: int(gm.NParticles), Arrays: make([][]byte, len(amr.ParticleArrays))}
	} else {
		g.Particles = amr.NewParticleSet(0)
	}
	return g
}

// bases returns the buffers of packed views, for a per-dump consumer that
// takes byte chunks (a gathered manifest, the root's particle sort).
func bases(vs []mpi.View) [][]byte {
	out := make([][]byte, len(vs))
	for i, v := range vs {
		out[i] = v.Base
	}
	return out
}

// blockColumns turns this rank's block of sorted particle rows into the
// file's column order and places it among the other ranks' blocks: the
// block covers rows [lo, lo+n) of every particle array, column k of it is
// cols[k], and flat is the columns back to back in array order (a list-I/O
// payload). The block is remembered for node-local restarts.
func (s *Sim) blockColumns(sorted []byte) (lo, n int64, flat []byte, cols [][]byte) {
	n = int64(len(sorted) / rowSize())
	lo = s.r.ExscanInt64(n)
	flat, cols = flatColumnsFromRows(sorted)
	s.r.CopyCost(int64(len(sorted)))
	s.localPartRows = [2]int64{lo, lo + n}
	return lo, n, flat, cols
}
