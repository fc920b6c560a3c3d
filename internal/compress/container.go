package compress

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"slices"
)

// Chunked container format. A packed array is self-describing and
// independently seekable per chunk:
//
//	container := header chunk*
//	header    := magic "CZ01" (4) | codec id (1) | reserved (3)
//	             | chunk size (u32) | chunk count (u32) | raw length (u64)
//	chunk     := raw length (u32) | stored length (u32)
//	             | CRC-32C of stored bytes (u32)
//	             | stored codec id (1) | reserved (3) | stored bytes
//
// Every chunk is compressed independently, so a reader can decode any
// chunk after scanning only the fixed-size headers before it. A chunk
// whose encoded form would be no smaller than its raw bytes is stored raw
// (stored codec id 0) — the container never expands by more than the
// header overhead. The CRC is over the stored bytes, so corruption
// surfaces as a checksum error rather than as garbage grid data.
const (
	containerMagic  = "CZ01"
	headerSize      = 24
	chunkHeaderSize = 16

	// DefaultChunkSize is the Pack granularity: large enough that varint
	// and token streams amortize their startup, small enough that a grid
	// array spans several independently checksummed chunks.
	DefaultChunkSize = 256 << 10
)

var crcTable = crc32.MakeTable(crc32.Castagnoli)

// capHint bounds an output pre-allocation by a length field that has not
// been validated yet (it may come from a corrupted or adversarial header):
// decoders grow their buffers by actual decoded work instead of trusting
// the declared size, so a lying header costs an error, not memory.
func capHint(rawLen int64) int {
	const maxHint = 1 << 20
	if rawLen < 0 {
		return 0
	}
	if rawLen > maxHint {
		return maxHint
	}
	return int(rawLen)
}

// Pack compresses src into the container format with the given codec and
// chunk size (0 means DefaultChunkSize). Every chunk is encoded straight
// onto the container, behind a chunk header patched once its stored length
// and checksum are known.
func Pack(c Codec, src []byte, chunkSize int) []byte {
	if chunkSize <= 0 {
		chunkSize = DefaultChunkSize
	}
	nChunks := (len(src) + chunkSize - 1) / chunkSize
	// Room for the largest container there is (every chunk stored raw) plus
	// the slack an encoder may ask for before the fallback takes it back:
	// the codecs never grow the buffer on data that compresses at all.
	out := make([]byte, headerSize, headerSize+nChunks*(chunkHeaderSize+2)+len(src)+len(src)/8)
	copy(out, containerMagic)
	out[4] = c.ID()
	binary.LittleEndian.PutUint32(out[8:], uint32(chunkSize))
	binary.LittleEndian.PutUint32(out[12:], uint32(nChunks))
	binary.LittleEndian.PutUint64(out[16:], uint64(len(src)))
	for i := 0; i < nChunks; i++ {
		lo := i * chunkSize
		raw := src[lo:min(lo+chunkSize, len(src))]
		hdr := len(out)
		out = append(out, make([]byte, chunkHeaderSize)...)
		out = c.Compress(out, raw)
		storedID := c.ID()
		if len(out)-hdr-chunkHeaderSize >= len(raw) {
			out, storedID = append(out[:hdr+chunkHeaderSize], raw...), 0 // store-raw fallback
		}
		stored := out[hdr+chunkHeaderSize:]
		binary.LittleEndian.PutUint32(out[hdr:], uint32(len(raw)))
		binary.LittleEndian.PutUint32(out[hdr+4:], uint32(len(stored)))
		binary.LittleEndian.PutUint32(out[hdr+8:], crc32.Checksum(stored, crcTable))
		out[hdr+12] = storedID
	}
	return out
}

// RawLen reads the logical (decompressed) length from a container header
// without decoding any data.
func RawLen(blob []byte) (int64, error) {
	if len(blob) < headerSize || string(blob[:4]) != containerMagic {
		return 0, fmt.Errorf("compress: not a container (bad magic)")
	}
	return int64(binary.LittleEndian.Uint64(blob[16:])), nil
}

// Unpack decodes a container produced by Pack, verifying every chunk's
// checksum and the declared lengths. Corruption yields an error naming
// the failing chunk, never silently wrong data.
func Unpack(blob []byte) ([]byte, error) { return appendUnpack(nil, blob) }

// appendUnpack is Unpack onto a buffer the caller owns: the decoded bytes
// are appended to dst, whose contents are left alone, and every chunk is
// decoded in place behind the previous one. On error the result is nil.
func appendUnpack(dst, blob []byte) ([]byte, error) {
	if len(blob) < headerSize {
		return nil, fmt.Errorf("compress: container truncated (%d bytes)", len(blob))
	}
	if string(blob[:4]) != containerMagic {
		return nil, fmt.Errorf("compress: not a container (bad magic)")
	}
	nChunks := int(binary.LittleEndian.Uint32(blob[12:]))
	rawLen := int64(binary.LittleEndian.Uint64(blob[16:]))
	base := len(dst)
	out := slices.Grow(dst, capHint(rawLen))
	p := headerSize
	for i := 0; i < nChunks; i++ {
		if p+chunkHeaderSize > len(blob) {
			return nil, fmt.Errorf("compress: chunk %d header truncated", i)
		}
		chunkRaw := int(binary.LittleEndian.Uint32(blob[p:]))
		storedLen := int(binary.LittleEndian.Uint32(blob[p+4:]))
		wantCRC := binary.LittleEndian.Uint32(blob[p+8:])
		storedID := blob[p+12]
		p += chunkHeaderSize
		if p+storedLen > len(blob) {
			return nil, fmt.Errorf("compress: chunk %d data truncated", i)
		}
		stored := blob[p : p+storedLen]
		p += storedLen
		if got := crc32.Checksum(stored, crcTable); got != wantCRC {
			return nil, fmt.Errorf("compress: chunk %d checksum mismatch (got %08x, want %08x): corrupted data", i, got, wantCRC)
		}
		codec, err := ByID(storedID)
		if err != nil {
			return nil, fmt.Errorf("compress: chunk %d: %v", i, err)
		}
		if out, err = codec.Decompress(out, stored, chunkRaw); err != nil {
			return nil, fmt.Errorf("compress: chunk %d: %v", i, err)
		}
	}
	if int64(len(out)-base) != rawLen {
		return nil, fmt.Errorf("compress: container decodes to %d bytes, want %d", len(out)-base, rawLen)
	}
	return out, nil
}
