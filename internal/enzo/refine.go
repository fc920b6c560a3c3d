package enzo

import (
	"encoding/json"
	"fmt"
	"math"
	"sort"

	"repro/internal/amr"
	"repro/internal/core"
)

// Dynamic refinement: per the paper's simulation flow (Figure 2), the
// grid hierarchy deepens during the evolution between dumps — "the
// subgrids can be refined and redistributed among processors". With
// Config.RefineCycles > 0, every evolve step flags and refines the owned
// grids of the deepest level, assigns globally consistent IDs to the new
// children, and exchanges the updated hierarchy metadata so every rank can
// still compute the shared-file layout without communication at dump
// time. Each dump then records its own ".hierarchy" file, which a restart
// (possibly on a different processor count) loads.

// refineOwned performs one refinement pass over this rank's owned grids at
// the current deepest level. Collective: all ranks must call it together.
func (s *Sim) refineOwned() int {
	maxLevel := 0
	for _, g := range s.meta.Grids {
		if g.Level > maxLevel {
			maxLevel = g.Level
		}
	}
	threshold := s.cfg.Threshold * math.Pow(1.8, float64(maxLevel))

	// Refine deterministically in grid-ID order.
	ids := make([]int, 0, len(s.owned))
	for id := range s.owned {
		ids = append(ids, id)
	}
	sort.Ints(ids)
	var children []*amr.Grid
	var updatedParents []core.GridMeta
	for _, id := range ids {
		g := s.owned[id]
		if g.Level != maxLevel {
			continue
		}
		// Refine moves the particles inside each child out of the parent.
		children = append(children, amr.Refine(g, amr.ClusterFlags(g, amr.FlagCells(g, threshold), 8))...)
		updatedParents = append(updatedParents, core.GridMeta{
			ID: g.ID, Level: g.Level, Parent: g.Parent, Dims: g.Dims,
			NParticles: int64(g.Particles.N),
			LeftEdge:   g.LeftEdge, RightEdge: g.RightEdge,
		})
	}
	// The evolution work of flagging/interpolating.
	var work int64
	for _, c := range children {
		work += c.Cells()
	}
	s.r.Compute(work * s.cfg.FlopsPerCell)

	// Assign globally consistent IDs: counts exchanged, each rank's new
	// grids get a contiguous block in rank order.
	counts := s.r.AllgatherInt64(int64(len(children)))
	base := len(s.meta.Grids)
	for rank := 0; rank < s.r.Rank(); rank++ {
		base += int(counts[rank])
	}
	newMetas := make([]core.GridMeta, 0, len(children))
	for i, c := range children {
		c.ID = base + i
		c.Level = maxLevel + 1
		s.owned[c.ID] = c
		newMetas = append(newMetas, core.GridMeta{
			ID: c.ID, Level: c.Level, Parent: c.Parent, Dims: c.Dims,
			NParticles: int64(c.Particles.N),
			LeftEdge:   c.LeftEdge, RightEdge: c.RightEdge,
		})
	}

	// Exchange the hierarchy update (the replicated metadata stays
	// replicated): every rank learns all new grids and all parent
	// particle-count changes.
	payload := struct {
		New     []core.GridMeta
		Parents []core.GridMeta
	}{newMetas, updatedParents}
	enc, err := json.Marshal(payload)
	if err != nil {
		panic(err)
	}
	var total int
	allNew := make([]core.GridMeta, 0)
	for _, chunk := range s.r.Allgatherv(enc) {
		var p struct {
			New     []core.GridMeta
			Parents []core.GridMeta
		}
		if err := json.Unmarshal(chunk, &p); err != nil {
			panic(fmt.Sprintf("enzo: corrupt refinement update: %v", err))
		}
		allNew = append(allNew, p.New...)
		for _, pm := range p.Parents {
			s.meta.Grids[pm.ID] = pm
		}
		total += len(p.New)
	}
	sort.Slice(allNew, func(i, j int) bool { return allNew[i].ID < allNew[j].ID })
	for _, m := range allNew {
		if m.ID != len(s.meta.Grids) {
			panic(fmt.Sprintf("enzo: refinement ID gap: grid %d arriving at slot %d",
				m.ID, len(s.meta.Grids)))
		}
		s.meta.Grids = append(s.meta.Grids, m)
	}
	// Extend the dump-time ownership map: rank k owns the contiguous ID
	// block its counts entry describes (children stay with their creator).
	for rank := 0; rank < s.r.Size(); rank++ {
		for k := int64(0); k < counts[rank]; k++ {
			s.dumpOwners = append(s.dumpOwners, rank)
		}
	}
	// The shared-file layout changes with the hierarchy.
	s.offsets = core.NewLayout(s.meta)
	return total
}

// dumpHierarchyFile is the per-dump metadata file name.
func dumpHierarchyFile(d int) string { return fmt.Sprintf("dump%02d.hierarchy", d) }

// writeDumpHierarchy records the dump-time hierarchy metadata (rank 0),
// so restarts — including restarts on a different processor count — see
// the hierarchy as of this dump rather than the initial one.
func (s *Sim) writeDumpHierarchy(d int) {
	if s.r.Rank() == 0 {
		f, err := s.fs.Create(s.client(), dumpHierarchyFile(d))
		if err != nil {
			panic(err)
		}
		f.WriteAt(s.client(), s.meta.Encode(), 0)
		f.Close(s.client())
	}
	s.r.Barrier()
}
