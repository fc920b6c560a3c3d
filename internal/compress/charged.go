package compress

import (
	"runtime"
	"slices"
	"sync"
	"sync/atomic"

	"repro/internal/obs"
	"repro/internal/sim"
)

// A Compressor is one rank's codec on the simulated machine: the codec, the
// cost model it charges, and what the rank has already packed. Squeeze and
// Expand run the real codec on the real bytes AND charge the calling rank's
// virtual clock per the cost model. The charge happens whether or not a
// tracer is attached (it is part of the model, not instrumentation), so
// traced runs stay bit-identical to untraced ones. The pure codec/container
// functions stay separate so the fuzz targets never touch the simulator.
//
// Packed once. A container is a pure function of the array's bytes and the
// codec, and a payload buffer is write-once (DESIGN.md §13): once an array
// has been presented, nobody writes to it again. So the array's identity —
// where it starts and how long it is — stands for its bytes, and the memo
// returns the container built the first time, without a pass over the data.
// Identity rather than a content hash: two live arrays cannot share an
// identity, while two contents can share a hash, and a collision would store
// the wrong bytes without a sound. The memo keeps the array reachable, so
// its address cannot be handed to another array while the entry lives; the
// owner calls Forget when it lets the arrays go. A caller that refills a
// buffer it has squeezed breaks the write-once rule and gets the stale
// container back — enzo's TestWriteOnceHolds and the re-pack check of
// TestHitsAreRepacks are what hold callers to it.
//
// A container the memo keeps is allocated at its own length: Pack stages it
// in a worst-case buffer (every chunk stored raw, plus the encoder's slack),
// which the compressor keeps and reuses — one per PackAll worker, the first
// also Packed's — and the container is copied out of it.
//
// Decoded ahead. The read side has the twin batch: ExpandAll decodes the
// containers a reader is about to be lent, and Expand takes such a decode
// only for the very memory it was decoded from (see Expand).
//
// A Compressor belongs to one rank and is not safe for concurrent use;
// PackAll's and ExpandAll's workers run inside one call and are joined
// before it returns.
type Compressor struct {
	codec  Codec
	cost   CostModel
	memo   map[ArrayID][]byte
	stages [][]byte // staging buffers by worker; stages[0] is the caller's

	// ahead holds ExpandAll's decodes not yet taken, by the identity of the
	// container each was decoded from; decoded is ExpandAll's result slice,
	// kept for its room.
	ahead   map[ArrayID][]byte
	decoded [][]byte

	// OnHit, when set, is shown every remembered container before it is
	// returned. Tests set it to pack again and compare; nothing else does.
	OnHit func(raw, blob []byte)
	// OnExpand, when set, is shown every Expand: whether it took a decode
	// ExpandAll did (false: it decoded afresh). Tests count with it; nothing
	// else sets it.
	OnExpand func(batched bool)
}

// ArrayID is the identity of a non-empty array: its first byte's address and
// its length. The same address with another length is another array (an
// array's first chunk starts where the array does).
type ArrayID struct {
	first *byte
	n     int
}

// IDOf returns raw's identity; raw must not be empty.
func IDOf(raw []byte) ArrayID { return ArrayID{&raw[0], len(raw)} }

// NewCompressor returns a compressor for codec c charging cost model m, with
// nothing remembered.
func NewCompressor(c Codec, m CostModel) *Compressor {
	return &Compressor{codec: c, cost: m, memo: make(map[ArrayID][]byte), stages: make([][]byte, 1),
		ahead: make(map[ArrayID][]byte)}
}

// Codec returns the codec the compressor packs with.
func (z *Compressor) Codec() Codec { return z.codec }

// Packed returns raw's container without touching any clock: the remembered
// one, or a new one that is remembered from here on. The result is shared
// with every later caller and with whatever it was written to — read-only.
func (z *Compressor) Packed(raw []byte) []byte {
	if len(raw) == 0 {
		return Pack(z.codec, raw, DefaultChunkSize)
	}
	id := IDOf(raw)
	blob, ok := z.memo[id]
	if !ok {
		blob = z.pack(0, raw)
		z.memo[id] = blob
	} else if z.OnHit != nil {
		z.OnHit(raw, blob)
	}
	return blob
}

// PackAll packs every non-empty array of raws the compressor does not
// remember yet, each distinct array once, so that the Squeeze that presents
// it later finds it remembered. The arrays are packed side by side by
// Fanout, and only once all are joined are the containers filed, on the
// calling goroutine. Containers are pure functions of the bytes, so which
// arrays a batch holds changes host time and nothing else: PackAll touches
// no clock, span, counter or OnHit, and a later Squeeze charges a container
// packed here exactly as it charges one it packs itself.
func (z *Compressor) PackAll(raws [][]byte) {
	todo := make([][]byte, 0, len(raws))
	queued := make(map[ArrayID]bool, len(raws))
	for _, raw := range raws {
		if len(raw) == 0 {
			continue
		}
		id := IDOf(raw)
		if _, ok := z.memo[id]; ok || queued[id] {
			continue
		}
		queued[id] = true
		todo = append(todo, raw)
	}
	workers := Workers(len(todo))
	z.grow(workers)
	blobs := make([][]byte, len(todo))
	Fanout(workers, len(todo), func(w, i int) { blobs[i] = z.pack(w, todo[i]) })
	for i, raw := range todo {
		z.memo[IDOf(raw)] = blobs[i]
	}
}

// Workers returns how many goroutines Fanout should run n jobs on: one per
// core (runtime.GOMAXPROCS), and never more than there are jobs.
func Workers(n int) int { return min(runtime.GOMAXPROCS(0), n) }

// Fanout is the package's one worker loop, the batch of pure work a rank
// runs on every core inside one of its own steps (PackAll's packs,
// ExpandAll's decodes, enzo's castore read-ahead and chunk tables). It runs
// job(w, i) once for every i in [0, n) on workers goroutines, the caller
// being worker 0 — w names the worker, for state kept per worker — each
// claiming the next unclaimed index until none is left. All are joined before Fanout returns, and a job's panic stops
// every worker at its next claim and is raised again on the caller. The
// jobs must touch no clock and share nothing they write; the engine stays
// one thread, because the batch runs and joins inside one rank's step. With
// one core, or one job, it is the sequential loop on the caller.
func Fanout(workers, n int, job func(w, i int)) {
	if n == 0 {
		return
	}
	workers = max(1, min(workers, n))
	var (
		next   atomic.Int64
		wg     sync.WaitGroup
		panics = make([]any, workers)
	)
	work := func(w int) {
		defer wg.Done()
		defer func() {
			if p := recover(); p != nil {
				panics[w] = p
				next.Store(int64(n))
			}
		}()
		for {
			i := int(next.Add(1) - 1)
			if i >= n {
				return
			}
			job(w, i)
		}
	}
	wg.Add(workers)
	for w := 1; w < workers; w++ {
		go work(w)
	}
	work(0)
	wg.Wait()
	for _, p := range panics {
		if p != nil {
			panic(p)
		}
	}
}

// grow makes sure there is a staging buffer slot for each of n workers.
func (z *Compressor) grow(n int) {
	for len(z.stages) < n {
		z.stages = append(z.stages, nil)
	}
}

// pack packs raw in worker w's staging buffer and returns a copy of the
// container at its own length.
func (z *Compressor) pack(w int, raw []byte) []byte {
	z.stages[w] = packInto(z.stages[w], z.codec, raw, DefaultChunkSize)
	blob := make([]byte, len(z.stages[w]))
	copy(blob, z.stages[w])
	return blob
}

// Adopt remembers blob as raw's container: the caller vouches that it is
// what this compressor's codec packs raw's bytes into (enzo's table of
// packed initial conditions does, for partitions of an immutable hierarchy).
func (z *Compressor) Adopt(raw, blob []byte) { z.memo[IDOf(raw)] = blob }

// Forget drops everything remembered, releasing the arrays and containers.
func (z *Compressor) Forget() { clear(z.memo) }

// Remembered returns how many arrays the compressor holds a container for.
func (z *Compressor) Remembered() int { return len(z.memo) }

// Squeeze compresses raw into the chunked container format on p's clock. An
// array packed before costs the virtual machine exactly what it cost the
// first time — same span, same charge, same record — and the host nothing.
func (z *Compressor) Squeeze(p *sim.Proc, raw []byte) []byte {
	sp := obs.Begin(p, obs.LayerCodec, "compress").Bytes(int64(len(raw)))
	start := p.Now()
	blob := z.Packed(raw)
	p.Advance(z.cost.CompressSeconds(int64(len(raw))))
	sp.End()
	obs.RecordCompress(p, int64(len(raw)), int64(len(blob)), p.Now()-start)
	return blob
}

// ExpandAll decodes every non-empty container of blobs, side by side by
// Fanout (AppendUnpack into a buffer of its own), and, once all are joined,
// files each successful decode on the calling goroutine under the identity
// of the container it was decoded from, for the Expand of that very memory
// to take. A container that fails to decode is not filed: its Expand
// decodes it again and fails as it always did. Decoding is a pure function of the bytes, so which containers a
// batch holds changes host time and nothing else: ExpandAll touches no
// clock, span, counter, record or OnExpand. The decodes are held until
// taken or dropped (DropExpanded); a reader drops what it did not take when
// it closes.
func (z *Compressor) ExpandAll(blobs [][]byte) {
	z.decoded = slices.Grow(z.decoded[:0], len(blobs))[:len(blobs)]
	Fanout(Workers(len(blobs)), len(blobs), func(_, i int) {
		if len(blobs[i]) > 0 {
			z.decoded[i], _ = AppendUnpack(nil, blobs[i]) // a failure is Expand's to report
		}
	})
	for i, out := range z.decoded {
		if out != nil {
			z.ahead[IDOf(blobs[i])] = out
		}
	}
	clear(z.decoded)
}

// DropExpanded drops every decode ExpandAll filed that no Expand took, and
// returns how many there were.
func (z *Compressor) DropExpanded() int {
	n := len(z.ahead)
	clear(z.ahead)
	return n
}

// Expand decodes a container on p's clock, verifying every checksum, and
// appends the decoded bytes to dst (nil for a buffer of its own). Nothing is
// cached on this side: a read that trusted a cache would verify nothing.
// A decode done ahead of the read, off the clock, is no cache: ExpandAll's
// (and enzo's castore read-ahead's) is of the very bytes the read was lent,
// checksums verified, and the read still pays for it, through ChargeExpand.
// So Expand takes a decode ExpandAll filed only when dst is empty and blob
// is the very memory it was decoded from — the same first byte and length
// (ArrayID), which under the write-once rule are the same bytes — and
// removes it; any other blob, equal bytes elsewhere included, and any
// other dst are decoded here, and fail here, exactly as without a batch.
func (z *Compressor) Expand(p *sim.Proc, dst, blob []byte) ([]byte, error) {
	out, batched := z.take(dst, blob)
	if z.OnExpand != nil {
		z.OnExpand(batched)
	}
	if !batched {
		var err error
		if out, err = AppendUnpack(dst, blob); err != nil {
			obs.Begin(p, obs.LayerCodec, "decompress").End()
			return nil, err
		}
	}
	z.ChargeExpand(p, int64(len(out)-len(dst)), int64(len(blob)))
	return out, nil
}

// take removes and returns the decode ExpandAll filed for blob's very
// memory, when dst is empty and there is one.
func (z *Compressor) take(dst, blob []byte) ([]byte, bool) {
	if len(dst) > 0 || len(blob) == 0 || len(z.ahead) == 0 {
		return nil, false
	}
	id := IDOf(blob)
	out, ok := z.ahead[id]
	if ok {
		delete(z.ahead, id)
	}
	return out, ok
}

// ChargeExpand is what decoding a stored-byte container into raw bytes costs
// p: the span, the cost model's seconds and the record. Expand charges every
// decode it does through it, and a reader that decoded a container ahead of
// its read calls it at the read, so the two are the same on every clock and
// in every trace.
func (z *Compressor) ChargeExpand(p *sim.Proc, raw, stored int64) {
	sp := obs.Begin(p, obs.LayerCodec, "decompress").Bytes(raw)
	start := p.Now()
	p.Advance(z.cost.DecompressSeconds(raw))
	sp.End()
	obs.RecordDecompress(p, raw, stored, p.Now()-start)
}
