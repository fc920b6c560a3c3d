package compress

import (
	"repro/internal/obs"
	"repro/internal/sim"
)

// Squeeze and Expand are the simulation-facing entry points: they run the
// real codec on the real bytes AND charge the calling rank's virtual clock
// per the cost model. The charge happens whether or not a tracer is
// attached (it is part of the model, not instrumentation), so traced runs
// stay bit-identical to untraced ones. The pure codec/container functions
// stay separate so the fuzz targets never touch the simulator.

// Squeeze compresses raw into the chunked container format on p's clock.
func Squeeze(p *sim.Proc, c Codec, m CostModel, raw []byte) []byte {
	sp := obs.Begin(p, obs.LayerCodec, "compress").Bytes(int64(len(raw)))
	start := p.Now()
	blob := Pack(c, raw, DefaultChunkSize)
	p.Advance(m.CompressSeconds(int64(len(raw))))
	sp.End()
	obs.RecordCompress(p, int64(len(raw)), int64(len(blob)), p.Now()-start)
	return blob
}

// Expand decodes a container on p's clock, verifying every checksum, and
// appends the decoded bytes to dst (nil for a buffer of its own).
func Expand(p *sim.Proc, m CostModel, dst, blob []byte) ([]byte, error) {
	sp := obs.Begin(p, obs.LayerCodec, "decompress")
	start := p.Now()
	out, err := appendUnpack(dst, blob)
	if err != nil {
		sp.End()
		return nil, err
	}
	raw := int64(len(out) - len(dst))
	sp.Bytes(raw)
	p.Advance(m.DecompressSeconds(raw))
	sp.End()
	obs.RecordDecompress(p, raw, int64(len(blob)), p.Now()-start)
	return out, nil
}
