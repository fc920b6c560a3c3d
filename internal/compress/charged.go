package compress

import (
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
// A Compressor belongs to one rank and is not safe for concurrent use.
type Compressor struct {
	codec Codec
	cost  CostModel
	memo  map[ArrayID][]byte

	// OnHit, when set, is shown every remembered container before it is
	// returned. Tests set it to pack again and compare; nothing else does.
	OnHit func(raw, blob []byte)
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
	return &Compressor{codec: c, cost: m, memo: make(map[ArrayID][]byte)}
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
		blob = Pack(z.codec, raw, DefaultChunkSize)
		z.memo[id] = blob
	} else if z.OnHit != nil {
		z.OnHit(raw, blob)
	}
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

// Expand decodes a container on p's clock, verifying every checksum, and
// appends the decoded bytes to dst (nil for a buffer of its own). Nothing is
// remembered on this side: a read that trusted a cache would verify nothing.
func (z *Compressor) Expand(p *sim.Proc, dst, blob []byte) ([]byte, error) {
	sp := obs.Begin(p, obs.LayerCodec, "decompress")
	start := p.Now()
	out, err := appendUnpack(dst, blob)
	if err != nil {
		sp.End()
		return nil, err
	}
	raw := int64(len(out) - len(dst))
	sp.Bytes(raw)
	p.Advance(z.cost.DecompressSeconds(raw))
	sp.End()
	obs.RecordDecompress(p, raw, int64(len(blob)), p.Now()-start)
	return out, nil
}
