package enzo

import (
	"fmt"

	"repro/internal/amr"
	"repro/internal/core"
	"repro/internal/machine"
	"repro/internal/mpi"
	"repro/internal/sim"
)

// Scaled restart: ENZO checkpoints are self-describing enough (the
// replicated hierarchy metadata plus position-independent array layouts)
// that a dump written by N processors can be restarted by M processors —
// the round-robin restart read and the block partitionings are all
// computed from the new communicator size. RunScaledRestart exercises
// exactly that: write a checkpoint with npWrite ranks, stage the files to
// a fresh platform allocation, restart with npRead ranks, and verify the
// content with decomposition-independent hashes.

// ContentHash is a decomposition-independent fingerprint of the
// distributed simulation state.
type ContentHash struct {
	TopFields    uint64
	TopParticles uint64
	GridHashes   map[int]uint64 // subgrid ID -> content hash
}

// Equal reports whether two fingerprints match.
func (a ContentHash) Equal(b ContentHash) bool {
	if a.TopFields != b.TopFields || a.TopParticles != b.TopParticles ||
		len(a.GridHashes) != len(b.GridHashes) {
		return false
	}
	for id, h := range a.GridHashes {
		if b.GridHashes[id] != h {
			return false
		}
	}
	return true
}

// contentHash computes the fingerprint collectively; the full result is
// valid on rank 0 (other ranks receive zero GridHashes).
func (s *Sim) contentHash() ContentHash {
	var ch ContentHash
	// Top-grid fields: sum over cells of a position-salted hash, so any
	// (Block,Block,Block) decomposition produces the same value.
	var local uint64
	if s.top != nil {
		for fi := range amr.FieldNames {
			runs := s.top.sub.Flatten()
			var p int64
			for _, run := range runs {
				for b := int64(0); b < run.Len; b += amr.FieldElemSize {
					elem := (run.Off + b) / amr.FieldElemSize
					local += cellHash(uint64(fi), uint64(elem), s.top.fields[fi][p+b:p+b+amr.FieldElemSize])
				}
				p += run.Len
			}
		}
	}
	ch.TopFields = uint64(s.r.AllreduceInt64(int64(local), mpi.OpSum))
	var pl uint64
	if s.top != nil {
		pl = particleSetHash(&s.top.particles)
	}
	ch.TopParticles = uint64(s.r.AllreduceInt64(int64(pl), mpi.OpSum))

	// Subgrids: hashed whole at their owners, gathered at rank 0.
	local2 := make(map[int]uint64, len(s.owned))
	for id, g := range s.owned {
		local2[id] = gridHash(g)
	}
	gathered := s.r.Gatherv(0, encGridHashes(local2))
	if s.r.Rank() == 0 {
		ch.GridHashes = decGridHashes(gathered)
	}
	return ch
}

// cellHash mixes a field index, a global element index and the element
// bytes into a position-salted contribution.
func cellHash(field, elem uint64, data []byte) uint64 {
	h := field*0x9E3779B97F4A7C15 ^ elem*0xC2B2AE3D27D4EB4F
	for _, b := range data {
		h ^= uint64(b)
		h *= 0x100000001B3
	}
	return h
}

// loadMetaFromFS loads the replicated hierarchy metadata from a
// ".hierarchy" file a previous allocation left behind: rank 0 reads and
// broadcasts.
func (s *Sim) loadMetaFromFS(name string) error {
	var enc []byte
	var fail string
	if s.r.Rank() == 0 {
		f, err := s.fs.Open(s.client(), name)
		if err != nil {
			fail = err.Error()
		} else {
			enc = make([]byte, f.Size(s.client()))
			f.ReadAt(s.client(), enc, 0)
			f.Close(s.client())
		}
		enc = append([]byte(fail+"\x00"), enc...)
		s.r.Bcast(0, enc)
	} else {
		enc = s.r.Bcast(0, nil)
	}
	sep := 0
	for sep < len(enc) && enc[sep] != 0 {
		sep++
	}
	if sep > 0 {
		return fmt.Errorf("enzo: restart cannot load hierarchy: %s", string(enc[:sep]))
	}
	m, err := core.DecodeHierarchyMeta(enc[sep+1:])
	if err != nil {
		return err
	}
	s.meta = m
	s.offsets = core.NewLayout(m)
	return nil
}

// RunScaledRestart writes a checkpoint with npWrite ranks, stages the
// files onto a fresh instance of the same platform (as an operator would
// copy checkpoint files between allocations), restarts with npRead ranks
// and verifies the content. Node-local storage cannot stage between
// different rank counts, so fsKind "local" is rejected.
func RunScaledRestart(machCfg machine.Config, fsKind string, npWrite, npRead int,
	cfg Config, backend Backend) (match bool, err error) {
	if fsKind == "local" {
		return false, fmt.Errorf("enzo: scaled restart is impossible on node-local storage")
	}
	// Phase 1: write the checkpoint with npWrite ranks.
	eng1 := sim.NewEngine()
	mach1 := machine.New(machCfg)
	fs1, err := MakeFS(fsKind, mach1)
	if err != nil {
		return false, err
	}
	var before ContentHash
	res1 := &Result{}
	mpi.NewWorld(eng1, mach1, npWrite, func(r *mpi.Rank) {
		s := NewSim(r, fs1, backend, cfg, res1)
		s.setup()
		s.readInitial()
		s.evolve()
		if h := s.contentHash(); r.Rank() == 0 {
			before = h
		}
		s.writeDump(0)
	})
	if err := eng1.Run(); err != nil {
		return false, fmt.Errorf("enzo: checkpoint phase: %w", err)
	}

	// Stage the files to a fresh allocation.
	eng2 := sim.NewEngine()
	mach2 := machine.New(machCfg)
	fs2, err := MakeFS(fsKind, mach2)
	if err != nil {
		return false, err
	}
	fs2.Restore(fs1.Snapshot())

	// Phase 2: restart with npRead ranks.
	var after ContentHash
	var restartErr error
	res2 := &Result{}
	mpi.NewWorld(eng2, mach2, npRead, func(r *mpi.Rank) {
		s := NewSim(r, fs2, backend, cfg, res2)
		if err := s.loadMetaFromFS(dumpHierarchyFile(0)); err != nil {
			if r.Rank() == 0 {
				restartErr = err
			}
			return
		}
		s.readRestart(0)
		if h := s.contentHash(); r.Rank() == 0 {
			after = h
		}
	})
	if err := eng2.Run(); err != nil {
		return false, fmt.Errorf("enzo: restart phase: %w", err)
	}
	if restartErr != nil {
		return false, restartErr
	}
	return before.Equal(after), nil
}
