package compress

import (
	"encoding/binary"
	"fmt"
	"math/bits"
	"slices"
)

// lzssCodec is a general-purpose LZSS coder: a 4 KiB sliding window,
// matches of 3..18 bytes found through a deterministic hash-chain matcher,
// and the classic flag-byte token stream:
//
//	each group starts with a flag byte covering the next 8 tokens
//	(LSB first); flag bit 0 = one literal byte, flag bit 1 = a 2-byte
//	match token: [offset low 8 | offset high 4, length-3 in low 4],
//	offset in 1..4096 counting back from the current position.
//
// Repeating 4-byte float patterns (constant field regions, per-plane
// constants of the derived velocity fields) turn into long matches at
// small offsets, which is where this codec earns its place next to the
// field-specific delta coder.
//
// The stream is a function of four things and nothing else: which earlier
// positions share a position's hash (lzHashAt, every position with three
// bytes left is inserted, those inside a match included), the order they
// are visited (most recent first), the lzMaxChain cap on candidates
// visited, and the tie rule (a candidate replaces the best only when
// strictly longer). Anything that leaves those four alone leaves every
// compressed size, and with it every virtual time, alone.
type lzssCodec struct{}

func (lzssCodec) Name() string { return "lzss" }
func (lzssCodec) ID() uint8    { return 3 }

const (
	lzWindow   = 4096
	lzMask     = lzWindow - 1
	lzMinMatch = 3
	lzMaxMatch = 18
	lzHashBits = 13
	lzMaxChain = 64
)

// lzHashAt hashes the three bytes at src[i:]; the caller guarantees
// i+lzMinMatch <= len(src). Everywhere but on the last such position the
// three bytes come out of one big-endian 32-bit load.
func lzHashAt(src []byte, i int) uint32 {
	var v uint32
	if i+4 <= len(src) {
		v = binary.BigEndian.Uint32(src[i:]) >> 8
	} else {
		v = uint32(src[i])<<16 | uint32(src[i+1])<<8 | uint32(src[i+2])
	}
	return v * 2654435761 >> (32 - lzHashBits)
}

// lzMatchLen counts the leading bytes src[c:] and src[i:] share, up to
// limit; the caller guarantees c < i and i+limit <= len(src).
func lzMatchLen(src []byte, c, i, limit int) int {
	l := 0
	for ; l+8 <= limit; l += 8 {
		if x := binary.LittleEndian.Uint64(src[c+l:]) ^ binary.LittleEndian.Uint64(src[i+l:]); x != 0 {
			return l + bits.TrailingZeros64(x)>>3
		}
	}
	for l < limit && src[c+l] == src[i+l] {
		l++
	}
	return l
}

// Compress appends the token stream of src to dst. The chain links live in
// a ring of lzWindow slots indexed by position: a link is followed only
// while the position it belongs to is still inside the window, which is
// exactly while no later position has taken its slot. Both tables are
// fixed-size arrays in the frame, so a call allocates nothing but the room
// dst lacks.
func (lzssCodec) Compress(dst, src []byte) []byte {
	n := len(src)
	base := len(dst)
	// Worst case: n literals, a flag byte per eight of them, and the flag
	// byte reserved for a group that never opens.
	room := n + n/8 + 2
	dst = slices.Grow(dst, room)
	out := dst[base : base+room]

	var head [1 << lzHashBits]int32 // latest position with this hash, plus one; 0 = none
	var ring [lzWindow]int32        // ring[p&lzMask]: what head held when position p went in

	flagAt, o := 0, 1 // the open group's flag byte is reserved up front
	var flags byte
	nbits := 0
	for i := 0; i < n; {
		bestLen, bestDist := 0, 0
		if i+lzMinMatch <= n {
			limit := min(n-i, lzMaxMatch)
			h := lzHashAt(src, i)
			cand := head[h]
			for steps := 0; cand != 0 && steps < lzMaxChain; steps++ {
				c := int(cand - 1)
				if i-c > lzWindow {
					break
				}
				// Only a strictly longer match replaces the best, and one
				// that differs at offset bestLen cannot be longer. bestLen
				// < limit here: the walk stops when a match reaches limit.
				if src[c+bestLen] == src[i+bestLen] {
					if l := lzMatchLen(src, c, i, limit); l > bestLen {
						bestLen, bestDist = l, i-c
						if l == limit {
							break
						}
					}
				}
				cand = ring[c&lzMask]
			}
			// Position i goes in after the search: distance lzWindow is
			// legal, and the candidate that far back shares i's ring slot.
			ring[i&lzMask] = head[h]
			head[h] = int32(i + 1)
		}
		if bestLen >= lzMinMatch {
			flags |= 1 << nbits
			out[o] = byte(bestDist - 1)
			out[o+1] = byte((bestDist-1)>>8<<4 | (bestLen - lzMinMatch))
			o += 2
			end := i + bestLen
			for p := i + 1; p < end && p+lzMinMatch <= n; p++ {
				h := lzHashAt(src, p)
				ring[p&lzMask] = head[h]
				head[h] = int32(p + 1)
			}
			i = end
		} else {
			out[o] = src[i]
			o++
			i++
		}
		if nbits++; nbits == 8 {
			out[flagAt] = flags
			flagAt, o = o, o+1
			flags, nbits = 0, 0
		}
	}
	if nbits > 0 {
		out[flagAt] = flags
	} else {
		o = flagAt // the reserved flag byte of a group that never opened
	}
	return dst[:base+o]
}

// Decompress appends the rawLen bytes src decodes to onto dst. A match may
// reach back to this call's first output byte and no further: what dst held
// on entry is another chunk's data, and a token pointing into it is
// corruption, not a source.
func (lzssCodec) Decompress(dst, src []byte, rawLen int) ([]byte, error) {
	base := len(dst)
	dst = slices.Grow(dst, capHint(int64(rawLen)))
	i := 0
	for i < len(src) {
		flags := src[i]
		i++
		if flags == 0 && i+8 <= len(src) { // eight literals
			dst = append(dst, src[i:i+8]...)
			i += 8
			if len(dst)-base > rawLen {
				return nil, fmt.Errorf("compress: lzss output exceeds declared size %d", rawLen)
			}
			continue
		}
		for bit := 0; bit < 8 && i < len(src); bit++ {
			if flags&(1<<bit) == 0 {
				dst = append(dst, src[i])
				i++
			} else {
				if i+2 > len(src) {
					return nil, fmt.Errorf("compress: lzss match token truncated at %d", i)
				}
				dist := (int(src[i]) | int(src[i+1]>>4)<<8) + 1
				length := int(src[i+1]&0x0F) + lzMinMatch
				i += 2
				start := len(dst) - dist
				if start < base {
					return nil, fmt.Errorf("compress: lzss match reaches before window start")
				}
				// A match longer than its distance overlaps its own
				// output: copy what is there, which doubles each round.
				for length > 0 {
					n := min(length, len(dst)-start)
					dst = append(dst, dst[start:start+n]...)
					length -= n
				}
			}
			if len(dst)-base > rawLen {
				return nil, fmt.Errorf("compress: lzss output exceeds declared size %d", rawLen)
			}
		}
	}
	if len(dst)-base != rawLen {
		return nil, fmt.Errorf("compress: lzss output is %d bytes, want %d", len(dst)-base, rawLen)
	}
	return dst, nil
}
