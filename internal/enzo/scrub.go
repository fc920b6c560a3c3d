package enzo

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"sort"

	"repro/internal/mpi"
	"repro/internal/mpiio"
	"repro/internal/obs"
)

// Checkpoint integrity (Config.ScrubOnDump): every dump generation gets a
// manifest file dumpNN.sum holding per-rank top-grid hashes and the global
// (gridID, hash) pairs of the dumped state, protected by a trailing CRC so
// the manifest itself cannot lie silently. A scrub is a full tolerant
// read-back of the generation (the restart path, with integrity failures
// recorded instead of fatal) compared against the manifest; a dirty
// generation is re-dumped from the still-live state. On restart the run
// walks generations newest-first and keeps the first one whose read-back
// matches its manifest — the generation fallback.
//
// Everything runs in virtual time on the simulated file system, so scrub
// and recovery costs show up in the phase accounting ("scrub") like any
// other I/O.

const sumMagic = "SUM1"

func manifestFile(d int) string { return fmt.Sprintf("dump%02d.sum", d) }

// encGridHashes encodes a (gridID, hash) map sorted by ID, 16 bytes per
// entry.
func encGridHashes(m map[int]uint64) []byte {
	ids := make([]int, 0, len(m))
	for id := range m {
		ids = append(ids, id)
	}
	sort.Ints(ids)
	out := make([]byte, 0, len(ids)*16)
	for _, id := range ids {
		var b [16]byte
		binary.LittleEndian.PutUint64(b[:], uint64(id))
		binary.LittleEndian.PutUint64(b[8:], m[id])
		out = append(out, b[:]...)
	}
	return out
}

func decGridHashes(chunks []mpi.View) map[int]uint64 {
	m := make(map[int]uint64)
	for _, v := range chunks {
		c := v.Base
		for p := 0; p+16 <= len(c); p += 16 {
			id := binary.LittleEndian.Uint64(c[p:])
			m[int(id)] = binary.LittleEndian.Uint64(c[p+8:])
		}
	}
	return m
}

// topRow packs one rank's top-grid hashes (24 bytes).
func topRow(snap snapshotState) []byte {
	var b [24]byte
	binary.LittleEndian.PutUint64(b[:], snap.topFields)
	binary.LittleEndian.PutUint64(b[8:], snap.topParticles)
	binary.LittleEndian.PutUint64(b[16:], uint64(snap.topCount))
	return b[:]
}

// manifest is the decoded dumpNN.sum.
type manifest struct {
	rows  [][]byte // np × 24-byte top rows, rank order
	grids map[int]uint64
}

func encodeManifest(np int, rows []mpi.View, grids []byte) []byte {
	out := make([]byte, 0, 4+4+np*24+4+len(grids)+4)
	out = append(out, sumMagic...)
	var u [4]byte
	binary.LittleEndian.PutUint32(u[:], uint32(np))
	out = append(out, u[:]...)
	for _, row := range rows {
		out = append(out, row.Base...)
	}
	binary.LittleEndian.PutUint32(u[:], uint32(len(grids)/16))
	out = append(out, u[:]...)
	out = append(out, grids...)
	binary.LittleEndian.PutUint32(u[:], crc32.ChecksumIEEE(out))
	out = append(out, u[:]...)
	return out
}

// decodeManifest validates the framing and CRC; any damage yields nil.
func decodeManifest(b []byte, np int) *manifest {
	if len(b) < 4+4+np*24+4+4 || string(b[:4]) != sumMagic {
		return nil
	}
	body, tail := b[:len(b)-4], b[len(b)-4:]
	if crc32.ChecksumIEEE(body) != binary.LittleEndian.Uint32(tail) {
		return nil
	}
	if int(binary.LittleEndian.Uint32(b[4:])) != np {
		return nil
	}
	m := &manifest{}
	p := 8
	for r := 0; r < np; r++ {
		m.rows = append(m.rows, b[p:p+24])
		p += 24
	}
	ng := int(binary.LittleEndian.Uint32(b[p:]))
	p += 4
	if p+ng*16 != len(body) {
		return nil
	}
	m.grids = decGridHashes([]mpi.View{mpi.Packed(body[p:])})
	return m
}

// writeManifest gathers the live state's hashes to rank 0 and writes the
// generation's manifest (collective).
func (s *Sim) writeManifest(d int, snap snapshotState) {
	defer obs.Begin(s.r.Proc(), obs.LayerApp, "manifest_write").Attr("dump", fmt.Sprint(d)).End()
	rows := s.r.Gatherv(0, mpi.Packed(topRow(snap)))
	gridChunks := s.r.Gatherv(0, mpi.Packed(encGridHashes(snap.grids)))
	if s.r.Rank() == 0 {
		all := encGridHashes(decGridHashes(gridChunks))
		enc := encodeManifest(s.r.Size(), rows, all)
		if s.cas != nil {
			// Castore runs replicate the integrity manifest like any other
			// named object, so a dead data server degrades it to a re-routed
			// read instead of an unverifiable generation.
			if err := s.cas.PutNamed(s.client(), manifestFile(d), enc); err != nil {
				panic(err)
			}
		} else {
			f, err := s.fs.Create(s.client(), manifestFile(d))
			if err != nil {
				panic(err)
			}
			f.WriteAt(s.client(), enc, 0)
			f.Close(s.client())
		}
	}
	s.r.Barrier()
}

// manifestCheck compares the current in-memory state (typically just read
// back from generation d) against the generation's manifest. It folds in
// this rank's damaged flag and is collective: every rank learns the global
// verdict.
func (s *Sim) manifestCheck(d int) bool {
	defer obs.Begin(s.r.Proc(), obs.LayerApp, "manifest_check").Attr("dump", fmt.Sprint(d)).End()
	now := s.snapshot()
	var raw []byte
	if s.r.Rank() == 0 {
		// The manifest read goes through MPI-IO so the retry policy's
		// deadlines apply, and absorbs an exhausted-retry failure like any
		// other read-back error: a manifest on a dead data server makes the
		// generation unverifiable (nil manifest → dirty), it must not hang
		// the restart at virtual +Inf.
		saved := s.tolerant
		s.tolerant = true
		s.tolerantIO(func() {
			if s.cas != nil {
				if b, err := s.cas.GetNamed(s.client(), manifestFile(d)); err == nil {
					raw = b
				}
			} else if f, err := mpiio.OpenIndependent(s.r, s.fs, manifestFile(d), mpiio.ModeRead, s.hints); err == nil {
				buf := make([]byte, f.Size())
				f.ReadAt(buf, 0)
				f.Close()
				raw = buf
			}
		})
		s.tolerant = saved
	}
	raw = s.r.Bcast(0, raw)
	m := decodeManifest(raw, s.r.Size())
	ok := int64(1)
	if s.damaged || m == nil {
		ok = 0
	} else {
		want := m.rows[s.r.Rank()]
		if string(topRow(now)) != string(want) {
			ok = 0
		}
	}
	gridChunks := s.r.Gatherv(0, mpi.Packed(encGridHashes(now.grids)))
	if s.r.Rank() == 0 && m != nil {
		got := decGridHashes(gridChunks)
		if len(got) != len(m.grids) {
			ok = 0
		}
		for id, h := range m.grids {
			if got[id] != h {
				ok = 0
			}
		}
	}
	return s.r.AllreduceInt64(ok, mpi.OpMin) == 1
}

// scrubGeneration reads generation d back in tolerant mode and checks it
// against its manifest, preserving the live state around the read-back.
func (s *Sim) scrubGeneration(d int) bool {
	defer obs.Begin(s.r.Proc(), obs.LayerApp, fmt.Sprintf("scrub:%02d", d)).End()
	savedTop, savedOwned, savedRows := s.top, s.owned, s.localPartRows
	clean := s.readBack(d)
	s.top, s.owned, s.localPartRows = savedTop, savedOwned, savedRows
	return clean
}

// readBack replaces the in-memory state by a tolerant read of generation d
// and checks it against the generation's manifest.
func (s *Sim) readBack(d int) bool {
	s.clearState()
	s.tolerant, s.damaged = true, false
	s.readRestart(d)
	s.tolerant = false
	clean := s.manifestCheck(d)
	s.damaged = false
	return clean
}

// scrubDumps writes every generation's manifest, scrubs it, and re-dumps
// dirty generations (synchronously, from the live state) up to MaxRedumps
// times each. A generation still dirty after that many re-dumps is left in
// place for the restart fallback to skip.
func (s *Sim) scrubDumps(snap snapshotState) {
	maxRe := s.cfg.MaxRedumps
	if maxRe <= 0 {
		maxRe = 2
	}
	for d := 0; d < s.cfg.Dumps; d++ {
		s.writeManifest(d, snap)
		for try := 0; ; try++ {
			if s.scrubGeneration(d) {
				break
			}
			if s.r.Rank() == 0 {
				s.res.ScrubFailures++
			}
			if try >= maxRe {
				break
			}
			sp := obs.Begin(s.r.Proc(), obs.LayerApp,
				fmt.Sprintf("redump:%02d.%d", d, try)).Attr("dump", fmt.Sprint(d))
			s.writeDump(d)
			s.writeManifest(d, snap)
			sp.End()
			if s.r.Rank() == 0 {
				s.res.Redumps++
			}
		}
	}
}

// restartNewestClean walks the dump generations newest-first, reading each
// back tolerantly until one matches its manifest. A generation that fails
// is counted as a fallback and skipped; if every scanned generation is
// dirty the last-read (dirty) state stays, which the final verification
// then reports as unverified.
func (s *Sim) restartNewestClean() {
	lowest := 0
	if s.cfg.Generations > 0 && s.cfg.Dumps-s.cfg.Generations > lowest {
		lowest = s.cfg.Dumps - s.cfg.Generations
	}
	for d := s.cfg.Dumps - 1; d >= lowest; d-- {
		if s.readBack(d) {
			return
		}
		if d > lowest && s.r.Rank() == 0 {
			s.res.RestartFallbacks++
		}
	}
	// Every retained generation is dirty: the run finishes with whatever
	// dirty state the last read left, and runOnce surfaces the typed
	// *RestartError alongside the (unverified) result.
	if s.r.Rank() == 0 {
		s.res.restartFailed = true
	}
}
