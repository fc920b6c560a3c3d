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

	"repro/internal/obs"
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

// TestChargeExpandIsExpandsCharge: a container decoded off the clock by
// AppendUnpack and then charged by ChargeExpand costs the rank exactly what
// Expand costs it — the clock, the span and the decompress record — and a
// failed Expand still leaves its empty span.
func TestChargeExpandIsExpandsCharge(t *testing.T) {
	raw := bytes.Repeat([]byte("charged once, either way "), 40_000)
	z := NewCompressor(rleCodec{}, CostModel{CompressBps: 1e6, DecompressBps: 3e6})
	blob := Pack(rleCodec{}, raw, DefaultChunkSize)
	bad := bytes.Clone(blob)
	bad[len(bad)-1] ^= 0xFF
	trace := func(body func(p *sim.Proc)) (float64, []obs.Span, obs.CodecCounters) {
		tr := obs.NewTracer()
		var end float64
		onProc(t, func(p *sim.Proc) {
			tr.Attach(p, 0)
			body(p)
			end = p.Now()
		})
		return end, tr.Spans(), *tr.CodecStats()[0]
	}
	endE, spansE, recE := trace(func(p *sim.Proc) {
		if out, err := z.Expand(p, nil, blob); err != nil || !bytes.Equal(out, raw) {
			t.Fatalf("Expand: %v", err)
		}
		if _, err := z.Expand(p, nil, bad); err == nil {
			t.Fatal("Expand of a corrupted container succeeded")
		}
	})
	endC, spansC, recC := trace(func(p *sim.Proc) {
		out, err := AppendUnpack(make([]byte, 0, len(raw)), blob)
		if err != nil || !bytes.Equal(out, raw) {
			t.Fatalf("AppendUnpack: %v", err)
		}
		z.ChargeExpand(p, int64(len(out)), int64(len(blob)))
		if _, err := z.Expand(p, nil, bad); err == nil {
			t.Fatal("Expand of a corrupted container succeeded")
		}
	})
	if endE != endC || endE == 0 {
		t.Errorf("clock after Expand %g, after AppendUnpack and ChargeExpand %g", endE, endC)
	}
	if fmt.Sprint(spansE) != fmt.Sprint(spansC) || len(spansE) != 2 {
		t.Errorf("spans differ:\n Expand      %v\n ChargeExpand %v", spansE, spansC)
	}
	if recE != recC || recE.DecompressCalls != 1 {
		t.Errorf("decompress records differ: %+v vs %+v", recE, recC)
	}
}

// TestExpandAllIsExpand: a decode ExpandAll did is taken only by an Expand
// into an empty dst of the very memory it was decoded from, once, and then
// costs the rank exactly what a fresh Expand costs — bytes, clock, span and
// decompress record. Equal bytes at another address, a non-empty dst and a
// container that failed in the batch all take the fresh path, with its
// error; ExpandAll itself moves no clock, and DropExpanded drops the rest.
func TestExpandAllIsExpand(t *testing.T) {
	raw := bytes.Repeat([]byte("decoded ahead, charged at the read "), 30_000)
	blob := Pack(rleCodec{}, raw, DefaultChunkSize)
	bad := bytes.Clone(blob)
	bad[len(bad)-1] ^= 0xFF
	prefix := []byte("kept")
	cost := CostModel{CompressBps: 1e6, DecompressBps: 3e6}
	type outcome struct {
		out     []byte
		err     error
		end     float64
		spans   string
		rec     obs.CodecCounters
		batched []bool
	}
	// expand runs one Expand on a fresh rank, after the batch ran (when
	// batch is non-nil) on its compressor.
	expand := func(batch [][]byte, dst, blob []byte) (o outcome, z *Compressor) {
		z = NewCompressor(rleCodec{}, cost)
		z.OnExpand = func(b bool) { o.batched = append(o.batched, b) }
		tr := obs.NewTracer()
		onProc(t, func(p *sim.Proc) {
			tr.Attach(p, 0)
			if batch != nil {
				z.ExpandAll(batch)
				if p.Now() != 0 {
					t.Errorf("ExpandAll moved the clock to %g", p.Now())
				}
			}
			o.out, o.err = z.Expand(p, dst, blob)
			o.end = p.Now()
		})
		o.spans = fmt.Sprint(tr.Spans())
		if stats := tr.CodecStats(); len(stats) > 0 {
			o.rec = *stats[0] // none after a failed decode
		}
		return o, z
	}
	same := func(name string, got, want outcome, batched bool) {
		t.Helper()
		if !bytes.Equal(got.out, want.out) || fmt.Sprint(got.err) != fmt.Sprint(want.err) {
			t.Errorf("%s: %d bytes, error %v; a fresh Expand gives %d bytes, error %v", name, len(got.out), got.err, len(want.out), want.err)
		}
		if got.end != want.end || got.spans != want.spans || got.rec != want.rec {
			t.Errorf("%s: clock %g, spans %s, record %+v; a fresh Expand: %g, %s, %+v", name, got.end, got.spans, got.rec, want.end, want.spans, want.rec)
		}
		if len(got.batched) != 1 || got.batched[0] != batched {
			t.Errorf("%s: OnExpand saw %v, want [%v]", name, got.batched, batched)
		}
	}

	fresh, _ := expand(nil, nil, blob)
	if !bytes.Equal(fresh.out, raw) || fresh.err != nil || fresh.end == 0 || fresh.rec.DecompressCalls != 1 {
		t.Fatalf("fresh Expand: %d bytes, error %v, clock %g, record %+v", len(fresh.out), fresh.err, fresh.end, fresh.rec)
	}
	taken, z := expand([][]byte{nil, blob, bad}, nil, blob)
	same("the very memory", taken, fresh, true)
	if n := z.DropExpanded(); n != 0 {
		t.Errorf("%d decodes left after the take; the failed container must not be filed", n)
	}

	clone := bytes.Clone(blob)
	other, z := expand([][]byte{blob}, nil, clone)
	same("equal bytes at another address", other, fresh, false)
	if n := z.DropExpanded(); n != 1 {
		t.Errorf("DropExpanded dropped %d decodes, want the 1 not taken", n)
	}

	freshDst, _ := expand(nil, prefix, blob)
	withDst, _ := expand([][]byte{blob}, prefix, blob)
	same("a non-empty dst", withDst, freshDst, false)
	if !bytes.Equal(withDst.out[:len(prefix)], prefix) {
		t.Error("a non-empty dst lost its bytes")
	}

	freshBad, _ := expand(nil, nil, bad)
	if freshBad.err == nil {
		t.Fatal("Expand of a corrupted container succeeded")
	}
	batchedBad, _ := expand([][]byte{bad}, nil, bad)
	same("a corrupt container", batchedBad, freshBad, false)

	// A take removes the decode: the next Expand of the same memory decodes.
	z = NewCompressor(rleCodec{}, cost)
	var seen []bool
	z.OnExpand = func(b bool) { seen = append(seen, b) }
	onProc(t, func(p *sim.Proc) {
		z.ExpandAll([][]byte{blob, blob})
		for range 2 {
			if out, err := z.Expand(p, nil, blob); err != nil || !bytes.Equal(out, raw) {
				t.Fatalf("Expand: %v", err)
			}
		}
	})
	if fmt.Sprint(seen) != "[true false]" {
		t.Errorf("two Expands of one batched container took %v, want [true false]", seen)
	}
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
