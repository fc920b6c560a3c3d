package compress

import (
	"fmt"
	"slices"
)

// rleCodec is byte-level run-length encoding with literal runs, the
// PackBits-style token scheme:
//
//	control < 0x80: literal run — control+1 bytes follow verbatim (1..128)
//	control >= 0x80: repeat run — the next byte repeats control-0x80+3
//	                 times (3..130)
//
// Runs shorter than 3 are carried as literals (a 2-byte repeat token would
// not pay for itself). Effective on the constant background regions of the
// smooth baryon fields; harmless elsewhere thanks to the container's
// store-raw fallback.
type rleCodec struct{}

func (rleCodec) Name() string { return "rle" }
func (rleCodec) ID() uint8    { return 1 }

const (
	rleMaxLiteral = 128
	rleMinRun     = 3
	rleMaxRun     = 130
)

func (rleCodec) Compress(out, src []byte) []byte {
	litStart := 0
	flushLit := func(end int) {
		for litStart < end {
			n := end - litStart
			if n > rleMaxLiteral {
				n = rleMaxLiteral
			}
			out = append(out, byte(n-1))
			out = append(out, src[litStart:litStart+n]...)
			litStart += n
		}
	}
	i := 0
	for i < len(src) {
		run := 1
		for i+run < len(src) && src[i+run] == src[i] && run < rleMaxRun {
			run++
		}
		if run >= rleMinRun {
			flushLit(i)
			out = append(out, byte(0x80+run-rleMinRun), src[i])
			i += run
			litStart = i
		} else {
			i += run
		}
	}
	flushLit(len(src))
	return out
}

func (rleCodec) Decompress(out, src []byte, rawLen int) ([]byte, error) {
	base := len(out)
	out = slices.Grow(out, capHint(int64(rawLen)))
	i := 0
	for i < len(src) {
		c := src[i]
		i++
		if c < 0x80 {
			n := int(c) + 1
			if i+n > len(src) {
				return nil, fmt.Errorf("compress: rle literal run truncated at %d", i)
			}
			out = append(out, src[i:i+n]...)
			i += n
		} else {
			if i >= len(src) {
				return nil, fmt.Errorf("compress: rle repeat run truncated at %d", i)
			}
			n := int(c-0x80) + rleMinRun
			b := src[i]
			i++
			for k := 0; k < n; k++ {
				out = append(out, b)
			}
		}
		if len(out)-base > rawLen {
			return nil, fmt.Errorf("compress: rle output exceeds declared size %d", rawLen)
		}
	}
	if len(out)-base != rawLen {
		return nil, fmt.Errorf("compress: rle output is %d bytes, want %d", len(out)-base, rawLen)
	}
	return out, nil
}
