package compress

import (
	"encoding/binary"
	"fmt"
	"slices"
)

// deltaCodec is the float-aware delta + varint coder for the smooth baryon
// fields: the input is treated as little-endian words of the field element
// size (4 bytes, float32), each word is XORed with its predecessor — the
// Gorilla/FPC trick: neighboring cells of a smooth field share sign,
// exponent and high mantissa bits, so the XOR concentrates near zero —
// and the XOR stream is emitted as unsigned varints. Bytes past the last
// whole word are appended verbatim.
type deltaCodec struct{}

func (deltaCodec) Name() string { return "delta" }
func (deltaCodec) ID() uint8    { return 2 }

// deltaWord matches amr.FieldElemSize: the fields this codec targets are
// float32 arrays. (Kept as a local constant so the package stays free of
// application imports.)
const deltaWord = 4

func (deltaCodec) Compress(out, src []byte) []byte {
	nWords := len(src) / deltaWord
	prev := uint32(0)
	for i := 0; i < nWords; i++ {
		w := binary.LittleEndian.Uint32(src[i*deltaWord:])
		out = binary.AppendUvarint(out, uint64(w^prev))
		prev = w
	}
	out = append(out, src[nWords*deltaWord:]...)
	return out
}

func (deltaCodec) Decompress(out, src []byte, rawLen int) ([]byte, error) {
	if rawLen < 0 {
		return nil, fmt.Errorf("compress: delta negative raw length %d", rawLen)
	}
	nWords := rawLen / deltaWord
	rem := rawLen % deltaWord
	out = slices.Grow(out, capHint(int64(rawLen)))
	p := 0
	prev := uint32(0)
	var w [deltaWord]byte
	for i := 0; i < nWords; i++ {
		v, n := binary.Uvarint(src[p:])
		if n <= 0 {
			return nil, fmt.Errorf("compress: delta varint %d truncated", i)
		}
		if v > 0xFFFFFFFF {
			return nil, fmt.Errorf("compress: delta varint %d overflows a word", i)
		}
		p += n
		prev ^= uint32(v)
		binary.LittleEndian.PutUint32(w[:], prev)
		out = append(out, w[:]...)
	}
	if len(src)-p != rem {
		return nil, fmt.Errorf("compress: delta tail is %d bytes, want %d", len(src)-p, rem)
	}
	out = append(out, src[p:]...)
	return out, nil
}
