package compress

import (
	"bytes"
	"testing"

	"repro/internal/sim"
)

// countingCodec is rle that counts its Compress calls: one per container
// chunk, so a Pack of a short array is one call.
type countingCodec struct {
	rleCodec
	calls *int
}

func (c countingCodec) Compress(dst, src []byte) []byte {
	*c.calls++
	return c.rleCodec.Compress(dst, src)
}

// onProc runs body as the one process of a fresh engine.
func onProc(t testing.TB, body func(p *sim.Proc)) {
	t.Helper()
	eng := sim.NewEngine()
	eng.Spawn("rank0", body)
	if err := eng.Run(); err != nil {
		t.Fatal(err)
	}
}

// TestMemoIsKeyedByIdentityAndLength: the memo stands an array's identity in
// for its bytes, so it must tell arrays apart exactly as the write-once rule
// does — by where they start and how long they are, never by what they hold —
// and a hit must cost the clock what the first squeeze did.
func TestMemoIsKeyedByIdentityAndLength(t *testing.T) {
	calls := 0
	z := NewCompressor(countingCodec{calls: &calls}, CostModel{CompressBps: 1e6})
	raw := bytes.Repeat([]byte{1, 2, 3, 3, 3, 3, 3, 4}, 512)
	onProc(t, func(p *sim.Proc) {
		squeeze := func(what string, buf []byte, wantPacks int) []byte {
			t.Helper()
			before, t0 := calls, p.Now()
			blob := z.Squeeze(p, buf)
			if calls-before != wantPacks {
				t.Errorf("%s: the codec ran %d times, want %d", what, calls-before, wantPacks)
			}
			if got, want := p.Now(), t0+float64(len(buf))/1e6; got != want {
				t.Errorf("%s: the clock reads %g after the charge, want %g", what, got, want)
			}
			if out, err := Unpack(blob); err != nil || !bytes.Equal(out, buf) {
				t.Errorf("%s: the container does not unpack to the array (err %v)", what, err)
			}
			return blob
		}
		first := squeeze("first sight", raw, 1)
		again := squeeze("second call", raw, 0)
		if &again[0] != &first[0] || len(again) != len(first) {
			t.Error("second call: not the slice the first call returned")
		}
		squeeze("same bytes in another buffer", bytes.Clone(raw), 1)
		short := squeeze("same pointer, shorter length", raw[:len(raw)/2], 1)
		if len(short) >= len(first) {
			t.Errorf("the prefix's container is %d bytes, the array's %d", len(short), len(first))
		}
		if z.Remembered() != 3 {
			t.Errorf("remembers %d arrays, want 3", z.Remembered())
		}

		// Packed and Adopt stay off the clock; what they leave is what
		// Squeeze finds.
		other, t0 := bytes.Clone(raw), p.Now()
		z.Adopt(other, first)
		if blob := z.Packed(other); &blob[0] != &first[0] {
			t.Error("Packed after Adopt: not the adopted container")
		}
		if p.Now() != t0 {
			t.Error("Packed or Adopt moved the clock")
		}
		squeeze("adopted", other, 0)

		hits := 0
		z.OnHit = func(r, blob []byte) {
			hits++
			if !bytes.Equal(Pack(z.Codec(), r, DefaultChunkSize), blob) {
				t.Error("OnHit: the remembered container is not what Pack returns")
			}
		}
		squeeze("hit under OnHit", raw, 1) // the hook's own Pack
		if hits != 1 {
			t.Errorf("OnHit ran %d times, want 1", hits)
		}
		z.OnHit = nil

		z.Forget()
		if z.Remembered() != 0 {
			t.Errorf("remembers %d arrays after Forget", z.Remembered())
		}
		squeeze("after Forget", raw, 1)
	})
}
