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
//
// Reading on every core. A read-back lists, once the manifest is in, the
// items its walk will fetch, finds each chunk's stored payload without a
// read (castore.Store.Peek) and decodes and keys them all in one batch on
// every core (readAhead, through compress.Fanout), each item into the buffer
// the walk will return. The walk then fetches as before — per chunk a Get,
// the decode's charge, the key check — and takes a chunk's decode from the
// batch only when the Get lent the very memory the batch decoded, or the
// same bytes (another replica, after a restore), and the walk's destination
// is the very region it decoded into; any other payload (a stale overlay, a
// corrupt copy, a torn range) or a decode that failed is decoded afresh.
// The batch is dropped when the read-back ends.
package enzo

import (
	"bytes"
	"fmt"
	"slices"
	"strconv"

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

// casDump is one generation being written: the items this rank stored, and
// the scratch their names are built in.
type casDump struct {
	*Sim
	d     int
	items []castore.Item
	name  []byte
}

// createDump: a re-dump of a generation the store has already seen bypasses
// the dedup index entirely — see Store.BeginGeneration. The chunk tables of
// the rank's field and owned particle arrays that it has not derived yet are
// derived in one batch (deriveTables). A compressed run then packs, in one
// batch, one chunk of every content key among those arrays that the store
// does not hold: the chunks the Puts of this generation will compress.
func (l casLayout) createDump(d int) dumpWriter {
	l.cas.BeginGeneration(d)
	raws := l.dumpArrays(true)
	l.deriveTables(raws)
	if l.compressed() {
		var chunks [][]byte
		queued := make(map[castore.Key]bool)
		for _, raw := range raws {
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
		t = deriveTable(raw, s.cas.Params())
		s.chunks[id] = t
	}
	return t
}

// deriveTable is raw's chunk table: where the chunker cuts raw under params
// and each chunk's content key. It is the layout's one split site, pure, and
// runs on a Fanout worker for deriveTables.
func deriveTable(raw []byte, params castore.Params) chunkTable {
	t := chunkTable{bounds: castore.SplitBounds(raw, params)}
	t.keys = make([]castore.Key, len(t.bounds))
	lo := 0
	for i, hi := range t.bounds {
		t.keys[i] = castore.KeyOf(raw[lo:hi])
		lo = hi
	}
	return t
}

// deriveTables derives the chunk table of every non-empty array of raws
// that has none, side by side on every core (compress.Fanout), and files
// them, on the caller, once all are joined — as table would one by one,
// presenting nothing.
func (s *Sim) deriveTables(raws [][]byte) {
	todo := make([][]byte, 0, len(raws))
	for _, raw := range raws {
		if len(raw) > 0 {
			if _, ok := s.chunks[compress.IDOf(raw)]; !ok {
				todo = append(todo, raw)
			}
		}
	}
	tables := make([]chunkTable, len(todo))
	params := s.cas.Params()
	compress.Fanout(compress.Workers(len(todo)), len(todo), func(_, i int) { tables[i] = deriveTable(todo[i], params) })
	for i, raw := range todo {
		s.chunks[compress.IDOf(raw)] = tables[i]
	}
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
	w.name = topFieldItem(w.name[:0], fi, w.r.Rank())
	w.put(string(w.name), w.top.field(fi))
}

// putTopRows stores the sorted block as rows — no column transpose, so no
// row offsets to exchange either.
func (w *casDump) putTopRows(g core.GridMeta, sorted []byte) {
	w.r.CopyCost(int64(len(sorted)))
	w.name = topRowsItem(w.name[:0], w.r.Rank())
	w.put(string(w.name), sorted)
}

func (w *casDump) sealTop() {}

func (w *casDump) collective() bool { return false }

func (w *casDump) putSubgrid(gm core.GridMeta, grid *amr.Grid) {
	for fi := range amr.FieldNames {
		w.name = subFieldItem(w.name[:0], gm.ID, fi)
		w.put(string(w.name), grid.Fields[fi])
	}
	if gm.NParticles > 0 {
		for k := range amr.ParticleArrays {
			w.name = subParticleItem(w.name[:0], gm.ID, k)
			w.put(string(w.name), grid.Particles.Arrays[k])
		}
	}
}

// Item names, appended to b: rank r's partition of top-grid field fi and its
// particle-row block, and subgrid id's field fi and particle array k. A
// reader appends them to a scratch buffer and looks the item up by
// string(b), which allocates no name.
func topFieldItem(b []byte, fi, r int) []byte {
	b = strconv.AppendInt(append(b, "g0/f"...), int64(fi), 10)
	return strconv.AppendInt(append(b, "/r"...), int64(r), 10)
}

func topRowsItem(b []byte, r int) []byte {
	return strconv.AppendInt(append(b, "g0/p/r"...), int64(r), 10)
}

func subFieldItem(b []byte, id, fi int) []byte {
	b = strconv.AppendInt(append(b, 'g'), int64(id), 10)
	return strconv.AppendInt(append(b, "/f"...), int64(fi), 10)
}

func subParticleItem(b []byte, id, k int) []byte {
	b = strconv.AppendInt(append(b, 'g'), int64(id), 10)
	return strconv.AppendInt(append(b, "/p"...), int64(k), 10)
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
// arrays stay zero-filled and the walk still runs its collectives. ahead is
// the walk's chunks decoded ahead (nil when there is nothing to decode), and
// name the scratch item names are built in.
type casReader struct {
	*Sim
	man   *castore.Manifest
	ahead *readAhead
	name  []byte
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
	rd := &casReader{Sim: l.Sim, man: man}
	if man != nil {
		rd.ahead = rd.readAhead()
	}
	return rd
}

// readAhead is one read-back's batch: the items the rank's walk will fetch,
// in walk order, each decoded ahead into a buffer of its own, and what each
// chunk was decoded from and into. It is built and decoded before the walk's
// first fetch and read only by fetch, on the rank's goroutine. A rank has
// one (Sim.ahead), whose slices every read-back reuses and close clears.
type readAhead struct {
	items  []aheadItem
	chunks []aheadChunk // every item's chunks, back to back
	next   int          // where take looks first: past the last item taken
}

// aheadItem is one item of the batch. buf is allocated by the worker that
// decodes the item and handed to the walk, once, by take.
type aheadItem struct {
	it     *castore.Item
	chunks []aheadChunk // the item's stretch of readAhead.chunks
	buf    []byte
	taken  bool
}

// aheadChunk is one chunk of the batch: payload is the stored memory the
// batch found for it (castore.Store.Peek; nil: none), dst the region of its
// item's buffer it decoded into and key that region's content key. dst is
// nil unless the decode succeeded exactly into the chunk's region.
type aheadChunk struct {
	payload, dst []byte
	key          castore.Key
}

// readAhead lists the items this rank's walk will fetch — the top grid's
// fields and particle rows of its own partition, then every subgrid
// restartOwners gives it, as readRestart visits them — finds each chunk's
// stored payload without a read, and decodes and keys every item on every
// core (compress.Fanout). Nothing here touches a clock: the walk's fetches
// charge everything, as if no batch had run.
func (rd *casReader) readAhead() *readAhead {
	a := &rd.Sim.ahead
	a.items, a.next = a.items[:0], 0
	nchunks := 0
	list := func(name []byte) {
		rd.name = name
		if it := rd.man.Item(string(name)); it != nil && len(it.Chunks) > 0 {
			a.items = append(a.items, aheadItem{it: it})
			nchunks += len(it.Chunks)
		}
	}
	rank := rd.r.Rank()
	for fi := range amr.FieldNames {
		list(topFieldItem(rd.name[:0], fi, rank))
	}
	if rd.meta.Top().NParticles > 0 {
		list(topRowsItem(rd.name[:0], rank))
	}
	owners := rd.restartOwners()
	for _, gm := range rd.meta.Subgrids() {
		if owners[gm.ID] != rank {
			continue
		}
		for fi := range amr.FieldNames {
			list(subFieldItem(rd.name[:0], gm.ID, fi))
		}
		if gm.NParticles > 0 {
			for k := range amr.ParticleArrays {
				list(subParticleItem(rd.name[:0], gm.ID, k))
			}
		}
	}
	if len(a.items) == 0 {
		return nil
	}
	a.chunks = slices.Grow(a.chunks[:0], nchunks)[:nchunks]
	c, at := rd.client(), 0
	for i := range a.items {
		e := &a.items[i]
		e.chunks = a.chunks[at : at+len(e.it.Chunks) : at+len(e.it.Chunks)]
		at += len(e.it.Chunks)
		for j, ref := range e.it.Chunks {
			e.chunks[j].payload = rd.cas.Peek(c, ref)
		}
	}
	compressed := rd.compressed()
	compress.Fanout(compress.Workers(len(a.items)), len(a.items), func(_, i int) { a.items[i].decode(compressed) })
	return a
}

// decode allocates the item's buffer and decodes every chunk whose payload
// was found into its own region of it, keying each region that decoded
// exactly. Pure: it runs on a Fanout worker.
func (e *aheadItem) decode(compressed bool) {
	e.buf = make([]byte, e.it.Raw)
	lo := int64(0)
	for j, ref := range e.it.Chunks {
		c := &e.chunks[j]
		hi := lo + ref.Raw
		c.dst = nil
		if c.payload != nil && hi <= e.it.Raw {
			region := e.buf[lo:hi:hi]
			out := region[:0]
			if !compressed {
				out = append(out, c.payload...)
			} else if b, err := compress.AppendUnpack(out, c.payload); err == nil {
				out = b
			}
			if sameMemory(out, region) {
				c.dst, c.key = region, castore.KeyOf(region)
			}
		}
		lo = hi
	}
}

// take hands the walk the batch's entry for it, once: nil when the batch
// did not decode it, or has handed it out already. The walk fetches in the
// batch's order, so the search starts past the last entry taken.
func (a *readAhead) take(it *castore.Item) *aheadItem {
	if a == nil {
		return nil
	}
	for k := a.next; k < len(a.items); k++ {
		if e := &a.items[k]; e.it == it {
			e.taken, a.next = true, k+1
			return e
		}
	}
	return nil
}

// decoded returns chunk j's content key, and true, when the walk may take
// the chunk's decode from the batch: the decode succeeded in place, the
// payload Get lent is the very memory it decoded or holds the same bytes
// (another replica of a restored snapshot is other memory; the decode is a
// pure function of the bytes, and the key is still checked), and out — the
// walk's result so far, the chunk's bytes to go behind it — continues into
// the very region it decoded into.
func (e *aheadItem) decoded(j int, payload, out []byte) (castore.Key, bool) {
	if e == nil {
		return castore.Key{}, false
	}
	c := e.chunks[j]
	n := len(c.dst)
	if n == 0 || !(sameMemory(payload, c.payload) || bytes.Equal(payload, c.payload)) ||
		cap(out)-len(out) < n || !sameMemory(out[len(out):len(out)+n], c.dst) {
		return castore.Key{}, false
	}
	return c.key, true
}

// sameMemory reports whether a and b are one array: the same first byte and
// the same length (compress.ArrayID).
func sameMemory(a, b []byte) bool {
	return len(a) > 0 && len(b) > 0 && compress.IDOf(a) == compress.IDOf(b)
}

// fetch rebuilds one manifest item's raw bytes, fetching each chunk with
// replica failover, expanding the codec and re-deriving the content key —
// or, where the read-ahead decoded the very payload Get lent into the very
// place the result goes, charging that decode and taking its key. Any
// failure is tolerated (nil return, rank damaged) in tolerant mode and
// fatal otherwise, like every other restart read.
func (rd *casReader) fetch(name []byte) []byte {
	if rd.man == nil {
		return nil
	}
	it := rd.man.Item(string(name))
	if it == nil {
		rd.tolerate(fmt.Errorf("enzo: castore manifest has no item %q", name))
		return nil
	}
	e := rd.ahead.take(it)
	var out []byte
	if e != nil {
		out = e.buf[:0]
	} else {
		out = make([]byte, 0, it.Raw)
	}
	c := rd.client()
	for j, ref := range it.Chunks {
		payload, err := rd.cas.Get(c, ref)
		if rd.tolerate(err) {
			return nil
		}
		base := len(out)
		key, ahead := e.decoded(j, payload, out)
		if rd.onCasChunk != nil {
			rd.onCasChunk(string(name), ahead)
		}
		switch {
		case ahead:
			out = out[:base+len(e.chunks[j].dst)]
			if rd.compressed() {
				rd.z.ChargeExpand(rd.r.Proc(), int64(len(out)-base), int64(len(payload)))
			}
		case rd.compressed():
			if out = rd.expand(out, payload); out == nil {
				return nil // expand already tolerated the failure
			}
			key = castore.KeyOf(out[base:])
		default:
			out = append(out, payload...)
			key = castore.KeyOf(out[base:])
		}
		if key != ref.Key {
			rd.tolerate(fmt.Errorf("enzo: castore chunk key mismatch in %q", name))
			return nil
		}
	}
	return out
}

// fetchSized is fetch for an array whose size the metadata fixes: anything
// else is damage, replaced by a zero-filled array.
func (rd *casReader) fetchSized(name []byte, want int64) []byte {
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
	rd.name = topFieldItem(rd.name[:0], fi, rd.r.Rank())
	p.blocks[fi] = mpi.Packed(rd.fetchSized(rd.name, p.sub.Bytes()))
	return settled
}

// rows returns this rank's dumped block whatever [lo,hi) says: items are
// per rank, and the redistribution sorts out the rest.
func (rd *casReader) rows(g core.GridMeta, lo, hi int64) amr.ParticleSet {
	rd.name = topRowsItem(rd.name[:0], rd.r.Rank())
	return unpackRows(rd.fetch(rd.name))
}

func (rd *casReader) subgrid(gm core.GridMeta) func() *amr.Grid {
	grid := newGrid(gm)
	for fi := range amr.FieldNames {
		rd.name = subFieldItem(rd.name[:0], gm.ID, fi)
		grid.Fields[fi] = rd.fetchSized(rd.name, gm.Cells()*amr.FieldElemSize)
	}
	if gm.NParticles > 0 {
		for k, pa := range amr.ParticleArrays {
			rd.name = subParticleItem(rd.name[:0], gm.ID, k)
			grid.Particles.Arrays[k] = rd.fetchSized(rd.name, gm.NParticles*int64(pa.ElemSize))
		}
	}
	return func() *amr.Grid { return grid }
}

// close drops the batch, keeping its slices' room for the next read-back:
// what the walk did not take is garbage now, and what it took is the walk's.
func (rd *casReader) close() {
	a := rd.ahead
	if a == nil {
		return
	}
	if rd.onReadAhead != nil {
		unfetched := 0
		for _, e := range a.items {
			if !e.taken {
				unfetched++
			}
		}
		rd.onReadAhead(len(a.items), unfetched)
	}
	clear(a.items)
	clear(a.chunks)
	rd.ahead = nil
}
