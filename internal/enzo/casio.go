// Content-addressed checkpoint layout (Config.CAStore): instead of a shared
// dump file per generation, every grid array is split into content-defined
// chunks and handed to the rank's castore.Store, which dedups each chunk
// against the retained generations and replicates new chunks across the
// volume's data servers. The generation's manifest — which chunks, in what
// order, rebuild which arrays — is gathered to rank 0 and stored as a
// replicated named object, so a restart needs no surviving shared file:
// it reads the manifest, fetches each item's chunks with liveness-ordered
// failover, and re-derives every chunk's content key to catch corruption.
//
// Item naming mirrors the dump's ownership structure. The top grid is
// block-partitioned, so its arrays are per-rank items: rank r dumps its
// field partitions as g0/f<fi>/r<r> and its globally sorted particle-row
// block as g0/p/r<r>, and reads the same items back on restart (the
// particles then redistribute by position, exactly like the raw layout).
// Subgrids are wholly owned: the dump owner writes g<ID>/f<fi> and
// g<ID>/p<k>, and whichever rank restartOwners assigns reads them back —
// on node-local disks that is the writer itself, so the layout composes
// with localMode unchanged.
//
// The store blocks on (or defers, see Sim.deferCompletion) its own chunk
// writes and reads blocking with per-replica deadlines, so this layout
// issues nothing through the transport and its restart is not pipelined.
package enzo

import (
	"fmt"

	"repro/internal/amr"
	"repro/internal/castore"
	"repro/internal/compress"
	"repro/internal/core"
	"repro/internal/mpi"
)

func casManifestName(d int) string { return fmt.Sprintf("dump%02d.cas", d) }

// casLayout routes checkpoints through the chunk store; initial conditions
// stay in the backend's own layout.
type casLayout struct {
	layout
	*Sim
}

// casDump is one generation being written: the items this rank stored.
type casDump struct {
	*Sim
	d     int
	items []castore.Item
}

// createDump: a re-dump of a generation the store has already seen bypasses
// the dedup index entirely — see Store.BeginGeneration. A compressed run
// then packs, in one batch, one chunk of every content key among the
// rank's field and owned particle arrays that the store does not hold: the
// chunks the Puts of this generation will compress.
func (l casLayout) createDump(d int) dumpWriter {
	l.cas.BeginGeneration(d)
	if l.compressed() {
		var chunks [][]byte
		queued := make(map[castore.Key]bool)
		for _, raw := range l.dumpArrays(true) {
			t := l.table(raw)
			lo := 0
			for i, hi := range t.bounds {
				if k := t.keys[i]; !queued[k] && !l.cas.Holds(k) {
					queued[k] = true
					chunks = append(chunks, raw[lo:hi])
				}
				lo = hi
			}
		}
		l.z.PackAll(chunks)
	}
	return &casDump{Sim: l.Sim, d: d}
}

// chunkTable is where the chunker cut one array and what each chunk's
// content key is: pure functions of the array's bytes (and the store's chunk
// parameters, fixed for the run), so an array that is presented again — the
// next generation, a re-dump — is neither split nor keyed again. The table
// is filed under the array's identity on the strength of the write-once rule
// (see compress.Compressor); onChunkHit lets a test derive it again.
type chunkTable struct {
	bounds []int
	keys   []castore.Key
	// presented: a put has used the table. Deriving it ahead of the walk
	// (createDump) is not a presentation.
	presented bool
}

// table returns raw's chunk table, deriving and filing it on first sight,
// without presenting raw.
func (s *Sim) table(raw []byte) chunkTable {
	if len(raw) == 0 {
		return chunkTable{}
	}
	id := compress.IDOf(raw)
	t, ok := s.chunks[id]
	if !ok {
		t.bounds = castore.SplitBounds(raw, s.cas.Params())
		t.keys = make([]castore.Key, len(t.bounds))
		lo := 0
		for i, hi := range t.bounds {
			t.keys[i] = castore.KeyOf(raw[lo:hi])
			lo = hi
		}
		s.chunks[id] = t
	}
	return t
}

// chunked returns raw's chunk table as a put presents raw: every
// presentation after the first reuses the table.
func (s *Sim) chunked(raw []byte) chunkTable {
	if len(raw) == 0 {
		return chunkTable{}
	}
	t := s.table(raw)
	if !t.presented {
		t.presented = true
		s.chunks[compress.IDOf(raw)] = t
	} else if s.onChunkHit != nil {
		s.onChunkHit(raw, t)
	}
	return t
}

// put chunks one named array and stores it. Chunk payloads go through the
// codec (pack runs only on dedup misses, so a hit also skips the
// compression CPU cost); content keys are over the raw bytes, so dedup is
// codec-independent.
func (w *casDump) put(name string, raw []byte) {
	item := castore.Item{Name: name, Raw: int64(len(raw))}
	c := w.client()
	t := w.chunked(raw)
	lo := 0
	for i, hi := range t.bounds {
		chunk := raw[lo:hi]
		lo = hi
		ref, err := w.cas.Put(c, chunk, t.keys[i], func() []byte {
			if w.compressed() {
				return w.squeeze(chunk)
			}
			return chunk
		})
		if err != nil {
			panic(err)
		}
		item.Chunks = append(item.Chunks, ref)
	}
	w.items = append(w.items, item)
}

func (w *casDump) putTopField(fi int) {
	w.put(fmt.Sprintf("g0/f%d/r%d", fi, w.r.Rank()), w.top.field(fi))
}

// putTopRows stores the sorted block as rows — no column transpose, so no
// row offsets to exchange either.
func (w *casDump) putTopRows(g core.GridMeta, sorted []byte) {
	w.r.CopyCost(int64(len(sorted)))
	w.put(fmt.Sprintf("g0/p/r%d", w.r.Rank()), sorted)
}

func (w *casDump) sealTop() {}

func (w *casDump) collective() bool { return false }

func (w *casDump) putSubgrid(gm core.GridMeta, grid *amr.Grid) {
	for fi := range amr.FieldNames {
		w.put(fmt.Sprintf("g%d/f%d", gm.ID, fi), grid.Fields[fi])
	}
	if gm.NParticles > 0 {
		for k := range amr.ParticleArrays {
			w.put(fmt.Sprintf("g%d/p%d", gm.ID, k), grid.Particles.Arrays[k])
		}
	}
}

// finish: every rank's manifest fragment gathers to rank 0, which stores
// the framed, CRC-protected whole as a replicated named object.
func (w *casDump) finish() {
	frags := w.r.Gatherv(0, mpi.Packed(castore.EncodeItems(w.items)))
	if w.r.Rank() == 0 {
		blob := castore.EncodeManifest(w.d, w.r.Size(), bases(frags))
		if err := w.cas.PutNamed(w.client(), casManifestName(w.d), blob); err != nil {
			panic(err)
		}
	}
	w.r.Barrier()
}

// casReader reads one generation back. man is nil when a tolerant
// read-back could not load the manifest: every fetch then fails soft, the
// arrays stay zero-filled and the walk still runs its collectives.
type casReader struct {
	*Sim
	man *castore.Manifest
}

func (l casLayout) openDump(d int) gridReader {
	var raw []byte
	if l.r.Rank() == 0 {
		b, err := l.cas.GetNamed(l.client(), casManifestName(d))
		if !l.tolerate(err) {
			raw = b
		}
	}
	raw = l.r.Bcast(0, raw)
	man, err := castore.DecodeManifest(raw)
	if l.tolerate(err) {
		man = nil
	}
	return &casReader{l.Sim, man}
}

// fetch rebuilds one manifest item's raw bytes, fetching each chunk with
// replica failover, expanding the codec and re-deriving the content key.
// Any failure is tolerated (nil return, rank damaged) in tolerant mode and
// fatal otherwise, like every other restart read.
func (rd *casReader) fetch(name string) []byte {
	if rd.man == nil {
		return nil
	}
	it := rd.man.Item(name)
	if it == nil {
		rd.tolerate(fmt.Errorf("enzo: castore manifest has no item %q", name))
		return nil
	}
	c := rd.client()
	out := make([]byte, 0, it.Raw)
	for _, ref := range it.Chunks {
		payload, err := rd.cas.Get(c, ref)
		if rd.tolerate(err) {
			return nil
		}
		base := len(out)
		if rd.compressed() {
			if out = rd.expand(out, payload); out == nil {
				return nil // expand already tolerated the failure
			}
		} else {
			out = append(out, payload...)
		}
		if castore.KeyOf(out[base:]) != ref.Key {
			rd.tolerate(fmt.Errorf("enzo: castore chunk key mismatch in %q", name))
			return nil
		}
	}
	return out
}

// fetchSized is fetch for an array whose size the metadata fixes: anything
// else is damage, replaced by a zero-filled array.
func (rd *casReader) fetchSized(name string, want int64) []byte {
	buf := rd.fetch(name)
	if int64(len(buf)) != want {
		if buf != nil {
			rd.tolerate(fmt.Errorf("enzo: castore item %q: got %d bytes, want %d", name, len(buf), want))
		}
		buf = make([]byte, want)
	}
	return buf
}

func (rd *casReader) field(g core.GridMeta, fi int, p *partition) func() {
	p.blocks[fi] = mpi.Packed(rd.fetchSized(fmt.Sprintf("g0/f%d/r%d", fi, rd.r.Rank()), p.sub.Bytes()))
	return settled
}

// rows returns this rank's dumped block whatever [lo,hi) says: items are
// per rank, and the redistribution sorts out the rest.
func (rd *casReader) rows(g core.GridMeta, lo, hi int64) amr.ParticleSet {
	return unpackRows(rd.fetch(fmt.Sprintf("g0/p/r%d", rd.r.Rank())))
}

func (rd *casReader) subgrid(gm core.GridMeta) func() *amr.Grid {
	grid := newGrid(gm)
	for fi := range amr.FieldNames {
		grid.Fields[fi] = rd.fetchSized(fmt.Sprintf("g%d/f%d", gm.ID, fi), gm.Cells()*amr.FieldElemSize)
	}
	if gm.NParticles > 0 {
		for k, pa := range amr.ParticleArrays {
			grid.Particles.Arrays[k] = rd.fetchSized(fmt.Sprintf("g%d/p%d", gm.ID, k), gm.NParticles*int64(pa.ElemSize))
		}
	}
	return func() *amr.Grid { return grid }
}

func (rd *casReader) close() {}
