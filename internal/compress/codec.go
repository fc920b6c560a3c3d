// Package compress is the transparent grid-data compression subsystem:
// real, deterministic codecs operating on the simulated grid bytes, a
// chunked self-describing container format with per-chunk CRC checksums,
// and a virtual-time cost model that charges compress/decompress CPU to
// the calling rank's clock.
//
// The design follows what successor AMR I/O stacks added on top of the
// paper's optimized paths (ADIOS2 compression operators, openPMD's
// compressed chunked datasets): trade rank CPU time for bytes on the wire
// and disk. Because the simulation stores real file contents end-to-end,
// the codecs here are real — data round-trips bit-for-bit — and the
// tradeoff they expose per file system (win on slow Ethernet-backed PVFS,
// tie or lose on fast node-local disks) is measured, not assumed.
//
// Because compressed sizes feed virtual time, the bytes a codec emits are
// part of the model: testdata/codec.golden pins them, and a kernel may get
// faster only by leaving every one of them alone (the lzss matcher and
// decoder are held to the kernels they replaced, kept in lzss_ref_test.go).
// Codecs and the container work in append form on buffers their callers
// own — Pack encodes each chunk onto the container, Unpack and Expand
// decode each chunk onto one result — and keep no state between calls.
// What is remembered between calls — the containers of the write-once arrays
// a rank has packed — belongs to that rank's Compressor (charged.go), never
// to the package.
package compress

import (
	"fmt"
	"sort"
	"sync"
)

// Codec compresses and decompresses one buffer. Implementations must be
// deterministic: the same input always yields the same output bytes, so
// simulated file contents (and therefore virtual timings) are reproducible.
type Codec interface {
	// Name is the registry key ("none", "rle", "delta", "lzss").
	Name() string
	// ID is the stable on-disk identifier stored in chunk headers.
	ID() uint8
	// Compress appends the encoded form of src to dst and returns the
	// extended slice (the encoding may be larger than src; the container
	// layer falls back to storing raw when it is). dst belongs to the
	// caller: its first len(dst) bytes are neither read nor written, and
	// the result shares its array when the capacity suffices.
	Compress(dst, src []byte) []byte
	// Decompress appends the decoding of src, which must expand to exactly
	// rawLen bytes, to dst and returns the extended slice. What dst holds
	// on entry is not part of the stream: a back-reference may reach this
	// call's own output only. On error the result is nil.
	Decompress(dst, src []byte, rawLen int) ([]byte, error)
}

// Registry of codecs by name and by on-disk ID. The IDs are part of the
// container format and must never be reassigned.
var (
	regMu   sync.RWMutex
	byName  = make(map[string]Codec)
	byID    = make(map[uint8]Codec)
	ordered []string
)

// Register adds a codec to the registry. It panics on duplicate names or
// IDs — codecs are registered once at init time.
func Register(c Codec) {
	regMu.Lock()
	defer regMu.Unlock()
	if _, dup := byName[c.Name()]; dup {
		panic(fmt.Sprintf("compress: duplicate codec name %q", c.Name()))
	}
	if _, dup := byID[c.ID()]; dup {
		panic(fmt.Sprintf("compress: duplicate codec id %d", c.ID()))
	}
	byName[c.Name()] = c
	byID[c.ID()] = c
	ordered = append(ordered, c.Name())
	sort.Strings(ordered)
}

// ByName returns the named codec, or an error listing the known codecs.
func ByName(name string) (Codec, error) {
	regMu.RLock()
	defer regMu.RUnlock()
	if c, ok := byName[name]; ok {
		return c, nil
	}
	return nil, fmt.Errorf("compress: unknown codec %q (known codecs: %v)", name, ordered)
}

// ByID returns the codec with the given on-disk ID.
func ByID(id uint8) (Codec, error) {
	regMu.RLock()
	defer regMu.RUnlock()
	if c, ok := byID[id]; ok {
		return c, nil
	}
	return nil, fmt.Errorf("compress: unknown codec id %d", id)
}

// Names lists the registered codec names, sorted.
func Names() []string {
	regMu.RLock()
	defer regMu.RUnlock()
	return append([]string(nil), ordered...)
}

// Active reports whether name selects a real codec: "" and "none" mean
// uncompressed I/O.
func Active(name string) bool { return name != "" && name != "none" }

// Resolve validates a user-supplied codec name. It returns (nil, nil) for
// "" and "none" (compression off), the codec for a registered name, and
// an error listing the known codecs otherwise.
func Resolve(name string) (Codec, error) {
	if !Active(name) {
		return nil, nil
	}
	return ByName(name)
}

// none is the identity codec: ID 0 is also the container's "stored raw"
// chunk marker, so every container can be decoded without knowing which
// codec wrote it.
type noneCodec struct{}

func (noneCodec) Name() string                    { return "none" }
func (noneCodec) ID() uint8                       { return 0 }
func (noneCodec) Compress(dst, src []byte) []byte { return append(dst, src...) }
func (noneCodec) Decompress(dst, src []byte, rawLen int) ([]byte, error) {
	if len(src) != rawLen {
		return nil, fmt.Errorf("compress: stored chunk is %d bytes, want %d", len(src), rawLen)
	}
	return append(dst, src...), nil
}

func init() {
	Register(noneCodec{})
	Register(rleCodec{})
	Register(deltaCodec{})
	Register(lzssCodec{})
}
