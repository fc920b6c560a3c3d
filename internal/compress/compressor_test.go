package compress

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/sim"
)

// countingCodec is rle that counts its Compress calls: one per container
// chunk, so a Pack of a short array is one call. The count is atomic:
// PackAll's workers share the codec.
type countingCodec struct {
	rleCodec
	calls *atomic.Int64
}

func (c countingCodec) Compress(dst, src []byte) []byte {
	c.calls.Add(1)
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
	var calls atomic.Int64
	z := NewCompressor(countingCodec{calls: &calls}, CostModel{CompressBps: 1e6})
	raw := bytes.Repeat([]byte{1, 2, 3, 3, 3, 3, 3, 4}, 512)
	onProc(t, func(p *sim.Proc) {
		squeeze := func(what string, buf []byte, wantPacks int) []byte {
			t.Helper()
			before, t0 := calls.Load(), p.Now()
			blob := z.Squeeze(p, buf)
			if n := calls.Load() - before; n != int64(wantPacks) {
				t.Errorf("%s: the codec ran %d times, want %d", what, n, wantPacks)
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

// packAllBatch is a seeded batch with every case PackAll must sort out:
// empty arrays, one array twice, two arrays that share a first byte at
// different lengths, and arrays the compressor already remembers (the first
// two of remembered). Lengths reach past a container chunk, contents range
// from runs to noise.
func packAllBatch(seed int64) (batch, remembered [][]byte) {
	rng := rand.New(rand.NewSource(seed))
	array := func() []byte {
		n := 1 + rng.Intn(3*DefaultChunkSize/2)
		b := make([]byte, n)
		for i := 0; i < n; {
			run := min(n-i, 1+rng.Intn(64))
			if rng.Intn(2) == 0 {
				rng.Read(b[i : i+run])
			} else {
				v := byte(rng.Intn(4))
				for j := i; j < i+run; j++ {
					b[j] = v
				}
			}
			i += run
		}
		return b
	}
	for i := 0; i < 12; i++ {
		batch = append(batch, array())
	}
	twice, shared := batch[3], batch[5]
	remembered = [][]byte{batch[7], batch[8]}
	batch = append(batch, nil, twice, shared[:len(shared)/3], batch[9][:0], array())
	rng.Shuffle(len(batch), func(i, j int) { batch[i], batch[j] = batch[j], batch[i] })
	return batch, remembered
}

// chunksOf is how many container chunks (Compress calls) raw packs into.
func chunksOf(raw []byte) int64 { return int64((len(raw) + DefaultChunkSize - 1) / DefaultChunkSize) }

// TestPackAllMatchesPacked: after PackAll, every array of the batch has the
// container a fresh Pack builds, the codec ran once per distinct array the
// compressor did not remember, the clock did not move, no worker outlives
// the call, one worker or many make no difference, and a codec that panics
// panics on the caller, with nothing filed.
func TestPackAllMatchesPacked(t *testing.T) {
	procs := runtime.GOMAXPROCS(0)
	defer runtime.GOMAXPROCS(procs)
	for seed := int64(1); seed <= 4; seed++ {
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			batch, remembered := packAllBatch(seed)
			var wantCalls int64
			seen := map[ArrayID]bool{}
			for _, r := range remembered {
				seen[IDOf(r)] = true
			}
			for _, raw := range batch {
				if len(raw) > 0 && !seen[IDOf(raw)] {
					seen[IDOf(raw)] = true
					wantCalls += chunksOf(raw)
				}
			}
			var blobs [][][]byte // per GOMAXPROCS setting, per batch entry
			for _, n := range []int{max(procs, 4), 1} {
				runtime.GOMAXPROCS(n)
				var calls atomic.Int64
				z := NewCompressor(countingCodec{calls: &calls}, CostModel{CompressBps: 1e6})
				for _, r := range remembered {
					z.Packed(r)
				}
				calls.Store(0)
				onProc(t, func(p *sim.Proc) {
					t0, g0 := p.Now(), runtime.NumGoroutine()
					z.PackAll(batch)
					if p.Now() != t0 {
						t.Errorf("GOMAXPROCS %d: PackAll moved the clock from %g to %g", n, t0, p.Now())
					}
					if g := settledGoroutines(g0); g != g0 {
						t.Errorf("GOMAXPROCS %d: %d goroutines after PackAll, %d before", n, g, g0)
					}
				})
				if got := calls.Load(); got != wantCalls {
					t.Errorf("GOMAXPROCS %d: the codec ran %d times, want %d (once per chunk of each distinct new array)", n, got, wantCalls)
				}
				if z.Remembered() != len(seen) {
					t.Errorf("GOMAXPROCS %d: remembers %d arrays, want %d", n, z.Remembered(), len(seen))
				}
				var got [][]byte
				for i, raw := range batch {
					blob := z.Packed(raw)
					if !bytes.Equal(blob, Pack(rleCodec{}, raw, DefaultChunkSize)) {
						t.Errorf("GOMAXPROCS %d: array %d (%d bytes): the container is not what Pack builds", n, i, len(raw))
					}
					if len(raw) > 0 && cap(blob) != len(blob) {
						t.Errorf("GOMAXPROCS %d: array %d: a %d-byte container kept %d bytes of room", n, i, len(blob), cap(blob))
					}
					got = append(got, blob)
				}
				if calls.Load() != wantCalls {
					t.Errorf("GOMAXPROCS %d: Packed packed %d chunks again after PackAll", n, calls.Load()-wantCalls)
				}
				blobs = append(blobs, got)
			}
			for i := range batch {
				if !bytes.Equal(blobs[0][i], blobs[1][i]) {
					t.Errorf("array %d: packed differently by one worker and by many", i)
				}
			}
		})
	}

	t.Run("panic", func(t *testing.T) {
		batch, _ := packAllBatch(5)
		runtime.GOMAXPROCS(max(procs, 4))
		z := NewCompressor(panicCodec{}, CostModel{})
		g0 := runtime.NumGoroutine()
		func() {
			defer func() {
				if p := recover(); p != errBadChunk {
					t.Errorf("PackAll raised %v on the caller, want %v", p, errBadChunk)
				}
			}()
			z.PackAll(batch)
		}()
		if g := settledGoroutines(g0); g != g0 {
			t.Errorf("%d goroutines after the panic, %d before", g, g0)
		}
		if z.Remembered() != 0 {
			t.Errorf("a batch that panicked filed %d containers", z.Remembered())
		}
	})
}

// settledGoroutines returns the goroutine count once it is down to want, or
// after a second. A worker signals the join before it exits, so the count
// may lag PackAll's return by the few instructions of the worker's exit.
func settledGoroutines(want int) int {
	deadline := time.Now().Add(time.Second)
	for runtime.NumGoroutine() > want && time.Now().Before(deadline) {
		time.Sleep(100 * time.Microsecond)
	}
	return runtime.NumGoroutine()
}

var errBadChunk = errors.New("panicCodec: chunk over 100 kB")

// panicCodec panics on every chunk longer than 100 kB.
type panicCodec struct{ rleCodec }

func (c panicCodec) Compress(dst, src []byte) []byte {
	if len(src) > 100_000 {
		panic(errBadChunk)
	}
	return c.rleCodec.Compress(dst, src)
}
