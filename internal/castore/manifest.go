package castore

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
)

// A generation manifest maps every dumped array (one item per grid/field
// or grid/particle-array, per writing rank for the partitioned top grid)
// to its chunk list. Each chunk reference carries the content key, the raw
// and stored (possibly compressed) lengths, and the replica locations —
// (server, writer rank, container offset) triples — so a restart reader
// can fetch any retained generation without the writer's in-memory index.
//
// The manifest bytes are framed with a magic and a trailing CRC-32,
// mirroring the dumpNN.sum integrity manifests: a torn or corrupted
// manifest decodes to an error, never to a plausible-looking object.

const manifestMagic = "CAS1"

// Rep is one stored replica of a chunk: the data server its container file
// is placed on (-1 on volumes without independent data servers), the rank
// whose container holds it, and the byte offset inside that container.
type Rep struct {
	Server int
	Rank   int
	Off    int64
}

// ChunkRef is one chunk of an item: content key, raw length, stored
// payload length (differs from Raw when the codec compressed it), and the
// replica set.
type ChunkRef struct {
	Key  Key
	Raw  int64
	Phys int64
	Reps []Rep
}

// Item is one named array: its total raw length and ordered chunk list.
type Item struct {
	Name   string
	Raw    int64
	Chunks []ChunkRef
}

// Manifest is one generation's decoded manifest.
type Manifest struct {
	Gen   int
	NP    int
	Items []Item

	byName map[string]*Item // built by DecodeManifest, read-only after
}

// Item returns the named item, or nil. DecodeManifest builds the index and
// Item only reads it, so lookups need no lock and race with nothing.
func (m *Manifest) Item(name string) *Item { return m.byName[name] }

func putU32(b []byte, v uint32) []byte {
	var u [4]byte
	binary.LittleEndian.PutUint32(u[:], v)
	return append(b, u[:]...)
}

func putU64(b []byte, v uint64) []byte {
	var u [8]byte
	binary.LittleEndian.PutUint64(u[:], v)
	return append(b, u[:]...)
}

// EncodeItems serializes a rank's item list as a self-delimiting fragment;
// rank 0 concatenates the gathered fragments in rank order and frames them
// with EncodeManifest.
func EncodeItems(items []Item) []byte {
	var b []byte
	for _, it := range items {
		if len(it.Name) > 0xFFFF {
			panic("castore: item name too long")
		}
		b = append(b, byte(len(it.Name)), byte(len(it.Name)>>8))
		b = append(b, it.Name...)
		b = putU64(b, uint64(it.Raw))
		b = putU32(b, uint32(len(it.Chunks)))
		for _, c := range it.Chunks {
			b = putU64(b, c.Key.Sum)
			b = putU32(b, c.Key.N)
			b = putU64(b, uint64(c.Raw))
			b = putU64(b, uint64(c.Phys))
			b = append(b, byte(len(c.Reps)))
			for _, r := range c.Reps {
				b = putU32(b, uint32(int32(r.Server)))
				b = putU32(b, uint32(r.Rank))
				b = putU64(b, uint64(r.Off))
			}
		}
	}
	return b
}

// EncodeManifest frames concatenated item fragments into a generation
// manifest blob: magic, generation, rank count, body, CRC-32 trailer.
func EncodeManifest(gen, np int, fragments [][]byte) []byte {
	out := []byte(manifestMagic)
	out = putU32(out, uint32(gen))
	out = putU32(out, uint32(np))
	for _, f := range fragments {
		out = append(out, f...)
	}
	return putU32(out, crc32.ChecksumIEEE(out))
}

// DecodeManifest validates the framing and CRC and parses the item list.
// Any damage — truncation, bit flips, inconsistent counts — yields an
// error, so callers treat the generation as dirty rather than restoring
// from a lying manifest.
//
// The body is walked twice: once to check every length and count the items,
// chunks and replicas, then to fill one array of each — every item's Chunks
// and every chunk's Reps is a capped stretch of them, and every name a
// substring of one copy of the body — and the name index. A manifest is
// decoded on every rank for every read-back, so it costs a handful of
// allocations, not a few per chunk.
func DecodeManifest(b []byte) (*Manifest, error) {
	if len(b) < len(manifestMagic)+4+4+4 || string(b[:4]) != manifestMagic {
		return nil, fmt.Errorf("castore: bad manifest framing")
	}
	body, tail := b[:len(b)-4], b[len(b)-4:]
	if crc32.ChecksumIEEE(body) != binary.LittleEndian.Uint32(tail) {
		return nil, fmt.Errorf("castore: manifest CRC mismatch")
	}
	const itemHead, chunkHead, repSize = 2 + 8 + 4, 29, 16 // fixed bytes, names aside
	var nItems, nChunks, nReps int
	for p := 12; p < len(body); nItems++ {
		if p+2 > len(body) {
			return nil, errTruncated
		}
		nameLen := int(body[p]) | int(body[p+1])<<8
		if p+nameLen+itemHead > len(body) {
			return nil, errTruncated
		}
		nchunks := int(binary.LittleEndian.Uint32(body[p+2+nameLen+8:]))
		p += nameLen + itemHead
		for c := 0; c < nchunks; c++ {
			if p+chunkHead > len(body) {
				return nil, errTruncated
			}
			nreps := int(body[p+28])
			p += chunkHead
			if p+nreps*repSize > len(body) {
				return nil, errTruncated
			}
			p += nreps * repSize
			nReps += nreps
		}
		nChunks += nchunks
	}
	m := &Manifest{
		Gen:    int(binary.LittleEndian.Uint32(body[4:])),
		NP:     int(binary.LittleEndian.Uint32(body[8:])),
		Items:  make([]Item, nItems),
		byName: make(map[string]*Item, nItems),
	}
	refs, reps, names := make([]ChunkRef, nChunks), make([]Rep, nReps), string(body)
	p := 12
	for i := range m.Items {
		it := &m.Items[i]
		nameLen := int(body[p]) | int(body[p+1])<<8
		p += 2
		it.Name = names[p : p+nameLen]
		p += nameLen
		it.Raw = int64(binary.LittleEndian.Uint64(body[p:]))
		nchunks := int(binary.LittleEndian.Uint32(body[p+8:]))
		p += 12
		if nchunks > 0 {
			it.Chunks, refs = refs[:nchunks:nchunks], refs[nchunks:]
		}
		for c := range it.Chunks {
			ref := &it.Chunks[c]
			ref.Key.Sum = binary.LittleEndian.Uint64(body[p:])
			ref.Key.N = binary.LittleEndian.Uint32(body[p+8:])
			ref.Raw = int64(binary.LittleEndian.Uint64(body[p+12:]))
			ref.Phys = int64(binary.LittleEndian.Uint64(body[p+20:]))
			nreps := int(body[p+28])
			p += chunkHead
			if nreps > 0 {
				ref.Reps, reps = reps[:nreps:nreps], reps[nreps:]
			}
			for r := range ref.Reps {
				ref.Reps[r] = Rep{
					Server: int(int32(binary.LittleEndian.Uint32(body[p:]))),
					Rank:   int(binary.LittleEndian.Uint32(body[p+4:])),
					Off:    int64(binary.LittleEndian.Uint64(body[p+8:])),
				}
				p += repSize
			}
		}
		m.byName[it.Name] = it
	}
	return m, nil
}

var errTruncated = fmt.Errorf("castore: truncated manifest")
