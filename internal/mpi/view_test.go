package mpi

import (
	"bytes"
	"fmt"
	"math/rand"
	"runtime"
	"slices"
	"testing"

	"repro/internal/machine"
	"repro/internal/obs"
	"repro/internal/pfs"
	"repro/internal/sim"
)

// viewArray is a 3-D array of 4-byte elements, each byte its own offset's
// low bits, and the blocks BlockDecompose3D cuts from it for np ranks.
func viewArray(dims [3]int, np int) (base []byte, subs []Subarray) {
	base = make([]byte, 4*dims[0]*dims[1]*dims[2])
	for i := range base {
		base[i] = byte(i*7 + i>>8)
	}
	pz, py, px := ProcGrid3D(np)
	subs = make([]Subarray, np)
	for r := range subs {
		subs[r] = BlockDecompose3D(dims, pz, py, px, r, 4)
	}
	return base, subs
}

// viewRoundTrip scatters base's blocks from root and gathers them back, as
// views of base or packed (GatherSub at the root), and returns
// what the model saw, the part every rank was handed and the array the root
// unpacked from the gathered blocks.
func viewRoundTrip(t *testing.T, np, root int, dims [3]int, views bool) (model string, base []byte, subs []Subarray, held []View, back []byte) {
	t.Helper()
	base, subs = viewArray(dims, np)
	held = make([]View, np)
	now := make([]float64, np)
	bytesSent, msgsSent := make([]int64, np), make([]int64, np)
	tr := obs.NewTracer()
	eng := sim.NewEngine()
	NewWorld(eng, machine.New(testConfig(np, 1)), np, func(r *Rank) {
		tr.Attach(r.Proc(), r.Rank())
		var parts []View
		if r.Rank() == root {
			parts = blockParts(base, subs, views)
		}
		held[r.Rank()] = r.Scatterv(root, parts)
		blocks := r.Gatherv(root, held[r.Rank()])
		if r.Rank() == root {
			back = make([]byte, len(base))
			for i, v := range blocks {
				v.UnpackTo(back, subs[i])
			}
		}
		now[r.Rank()], bytesSent[r.Rank()], msgsSent[r.Rank()] = r.Now(), r.BytesSent(), r.MsgsSent()
	})
	if err := eng.Run(); err != nil {
		t.Fatal(err)
	}
	var spans []string
	for _, sp := range tr.Spans() {
		spans = append(spans, fmt.Sprintf("%s:%d", sp.Name, sp.Bytes))
	}
	model = fmt.Sprintf("now %v sent %v msgs %v events %d spans %v", now, bytesSent, msgsSent, eng.Events(), spans)
	return model, base, subs, held, back
}

// blockParts is one part per block of base: a view of base, or the block
// packed.
func blockParts(base []byte, subs []Subarray, views bool) []View {
	parts := make([]View, len(subs))
	for i := range parts {
		if views {
			parts[i] = View{Base: base, Sub: &subs[i]}
		} else {
			parts[i] = Packed(subs[i].GatherSub(base))
		}
	}
	return parts
}

// TestViewCollectivesMatchPacked holds Scatterv and Gatherv of views to the
// same collectives of packed blocks — the same clocks, Events, BytesSent,
// MsgsSent and span bytes — over ragged blocks and blocks with no elements,
// checks that a delivered view is the root's own array, not a copy, and
// that no host allocation grows with the payload.
func TestViewCollectivesMatchPacked(t *testing.T) {
	cases := []struct {
		np, empty int // ranks, blocks with no elements
		dims      [3]int
	}{
		{1, 0, [3]int{5, 7, 10}},
		{3, 0, [3]int{5, 7, 10}}, // x split 4+3+3
		{3, 1, [3]int{5, 7, 2}},  // x split 1+1+0
		{8, 0, [3]int{5, 7, 10}}, // a 1x2x4 grid: y 4+3, x 3+3+2+2
		{8, 5, [3]int{5, 1, 3}},  // y 1+0, x 1+1+1+0
	}
	for _, tc := range cases {
		t.Run(fmt.Sprintf("np%d/%dx%dx%d", tc.np, tc.dims[0], tc.dims[1], tc.dims[2]), func(t *testing.T) {
			root := tc.np / 2
			packed, _, _, _, _ := viewRoundTrip(t, tc.np, root, tc.dims, false)
			model, base, subs, held, back := viewRoundTrip(t, tc.np, root, tc.dims, true)
			if model != packed {
				t.Errorf("views moved the model:\n got %s\nwant %s", model, packed)
			}
			empty := 0
			for r, v := range held {
				if len(v.Base) == 0 || &v.Base[0] != &base[0] || v.Sub != &subs[r] {
					t.Errorf("rank %d was not handed a view of the root's array", r)
				}
				if !bytes.Equal(v.Pack(), subs[r].GatherSub(base)) {
					t.Errorf("rank %d's view packs to the wrong bytes", r)
				}
				if v.Bytes() == 0 {
					empty++
				}
			}
			if !bytes.Equal(back, base) {
				t.Error("the gathered views do not unpack to the scattered array")
			}
			if empty != tc.empty {
				t.Errorf("%d blocks empty, want %d", empty, tc.empty)
			}
		})
	}
	t.Run("no-allocation-per-payload-byte", viewPayloadAllocation)
}

// viewPayloadAllocation checks that a view round trip of a 3 MiB array
// allocates what one of a 3 KiB array does, while the packed one allocates
// the payload again — so the measure sees a per-byte allocation.
func viewPayloadAllocation(t *testing.T) {
	const np, trips = 8, 8
	alloc := func(dims [3]int, views bool) int64 {
		base, subs := viewArray(dims, np)
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		_, err := Simulate(testConfig(np, 1), np, func(r *Rank) {
			for i := 0; i < trips; i++ {
				var parts []View
				if r.Rank() == 0 {
					parts = blockParts(base, subs, views)
				}
				r.Gatherv(0, r.Scatterv(0, parts))
			}
		})
		runtime.ReadMemStats(&after)
		if err != nil {
			t.Fatal(err)
		}
		return int64(after.TotalAlloc - before.TotalAlloc)
	}
	small, large := [3]int{8, 8, 12}, [3]int{64, 96, 128}
	payload := int64(trips * 4 * (large[0]*large[1]*large[2] - small[0]*small[1]*small[2]))
	if grow := alloc(large, true) - alloc(small, true); grow > 64<<10 {
		t.Errorf("views: %d more bytes allocated for %d more payload bytes", grow, payload)
	}
	if grow := alloc(large, false) - alloc(small, false); grow < payload/2 {
		t.Errorf("packed: %d more bytes allocated for %d more payload bytes: the measure misses a copy", grow, payload)
	}
}

// cutParts cuts b into parts of the given sizes, cycled, each at its offset
// in b: a lent array as a store holds it, in pieces of whatever lengths its
// writes had.
func cutParts(b []byte, sizes ...int) []pfs.Piece {
	var parts []pfs.Piece
	for off, i := 0, 0; off < len(b); i++ {
		n := min(sizes[i%len(sizes)], len(b)-off)
		parts = append(parts, pfs.Piece{Off: int64(off), Bytes: b[off : off+n : off+n]})
		off += n
	}
	return parts
}

// TestLentViewIsItsParts: a lent view packs and unpacks to exactly what a
// view of the whole array does, whatever lengths its parts have — runs
// inside one part, runs spanning several — and with only the parts that
// hold its block: bytes outside the selection are never read.
func TestLentViewIsItsParts(t *testing.T) {
	base, subs := viewArray([3]int{6, 10, 14}, 8)
	for _, sizes := range [][]int{{len(base)}, {1}, {7, 300, 13}, {56}, {57, 55}} {
		all := cutParts(base, sizes...)
		for r := range subs {
			sub := &subs[r]
			want := sub.GatherSub(base)
			// Keep only the parts a run of the block touches.
			var held []pfs.Piece
			for _, p := range all {
				for _, run := range sub.Flatten() {
					if p.Off < run.Off+run.Len && run.Off < p.Off+int64(len(p.Bytes)) {
						held = append(held, p)
						break
					}
				}
			}
			for _, parts := range [][]pfs.Piece{all, held} {
				v := View{Sub: sub, Parts: parts}
				if v.Bytes() != sub.Bytes() {
					t.Fatalf("sizes %v rank %d: a lent view is %d bytes, its block %d", sizes, r, v.Bytes(), sub.Bytes())
				}
				if got := v.Pack(); !bytes.Equal(got, want) {
					t.Fatalf("sizes %v rank %d: Pack of the lent view differs from GatherSub", sizes, r)
				}
				dst := make([]byte, len(base))
				v.UnpackTo(dst, *sub)
				ref := make([]byte, len(base))
				sub.ScatterSub(ref, want)
				if !bytes.Equal(dst, ref) {
					t.Fatalf("sizes %v rank %d: UnpackTo of the lent view differs from ScatterSub", sizes, r)
				}
			}
		}
	}
}

// A lent view must hold every byte its selection asks for: a missing piece
// is a programming error, named by the offset nobody holds.
func TestCopyPartsPanicsOnAGap(t *testing.T) {
	parts := []pfs.Piece{{Off: 0, Bytes: make([]byte, 8)}, {Off: 12, Bytes: make([]byte, 8)}}
	defer func() {
		if r := recover(); r != "pfs: no lent piece holds offset 8" {
			t.Fatalf("recovered %v", r)
		}
	}()
	pfs.CopyPieces(make([]byte, 10), parts, 0, 4)
}

// TestExchangeChargesLentViewsAtLen: a lent view without a selection travels
// by reference and is charged its Len, as a packed buffer of that length is:
// the same clocks, bytes sent and span bytes.
func TestExchangeChargesLentViewsAtLen(t *testing.T) {
	const np, n = 4, 3000
	payload := bytes.Repeat([]byte{7}, 2*n)
	run := func(lent bool) (string, [np][]pfs.Piece) {
		var got [np][]pfs.Piece
		now, sent := make([]float64, np), make([]int64, np)
		tr := obs.NewTracer()
		eng := sim.NewEngine()
		NewWorld(eng, machine.New(testConfig(np, 1)), np, func(r *Rank) {
			tr.Attach(r.Proc(), r.Rank())
			parts, out := make([]View, np), make([]View, np)
			dst := (r.Rank() + 1) % np
			if lent {
				parts[dst] = View{Parts: []pfs.Piece{{Off: 0, Bytes: payload}}, Len: n}
			} else {
				parts[dst] = Packed(payload[:n])
			}
			r.ExchangeScratch(out, parts, []int{dst}, []int{(r.Rank() + np - 1) % np})
			got[r.Rank()] = out[(r.Rank()+np-1)%np].Parts
			now[r.Rank()], sent[r.Rank()] = r.Now(), r.BytesSent()
		})
		if err := eng.Run(); err != nil {
			t.Fatal(err)
		}
		var spans []string
		for _, sp := range tr.Spans() {
			spans = append(spans, fmt.Sprintf("%s:%d", sp.Name, sp.Bytes))
		}
		return fmt.Sprintf("now %v sent %v events %d spans %v", now, sent, eng.Events(), spans), got
	}
	packed, _ := run(false)
	lent, got := run(true)
	if lent != packed {
		t.Errorf("a lent view of Len %d is charged differently from %d packed bytes:\n lent   %s\n packed %s", n, n, lent, packed)
	}
	for r, parts := range got {
		if len(parts) != 1 || &parts[0].Bytes[0] != &payload[0] {
			t.Errorf("rank %d did not receive the sender's parts by reference", r)
		}
	}
}

// TestInPlaceIsAnIdentityUnpack: InPlace is true exactly when the view's
// elements are dst's own memory at their places — the same backing, or
// pieces cut from dst at any boundaries — and a clone, a piece shifted by a
// byte, a gap or a packed view make it false without a panic. Whenever it is
// true, UnpackTo into dst leaves every byte as it was.
func TestInPlaceIsAnIdentityUnpack(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for c := 0; c < 400; c++ {
		np := 1 + rng.Intn(8)
		pz, py, px := ProcGrid3D(np)
		dims := [3]int{pz + rng.Intn(7), py + rng.Intn(7), px + rng.Intn(7)}
		sub := BlockDecompose3D(dims, pz, py, px, rng.Intn(np), 4)
		dst := make([]byte, 4*dims[0]*dims[1]*dims[2])
		rng.Read(dst)
		sizes := make([]int, 1+rng.Intn(4))
		for i := range sizes {
			sizes[i] = 1 + rng.Intn(max(1, len(dst)/2))
		}
		parts := cutParts(dst, sizes...)
		// k is a piece the block's first run reads from.
		first := sub.Flatten()[0]
		k := pfs.PieceAt(parts, first.Off)
		with := func(p pfs.Piece) []pfs.Piece {
			changed := slices.Clone(parts)
			changed[k] = p
			return changed
		}
		p := parts[k]
		shifted := p
		if p.End() < int64(len(dst)) {
			shifted.Bytes = dst[p.Off+1 : p.End()+1]
		} else {
			shifted.Bytes = dst[p.Off-1 : p.End()-1]
		}
		for _, tc := range []struct {
			name string
			v    View
			want bool
		}{
			{"base is dst", View{Base: dst, Sub: &sub}, true},
			{"base is a clone", View{Base: bytes.Clone(dst), Sub: &sub}, false},
			{"parts cut from dst", View{Sub: &sub, Parts: parts}, true},
			{"one part a clone", View{Sub: &sub, Parts: with(pfs.Piece{Off: p.Off, Bytes: bytes.Clone(p.Bytes)})}, false},
			{"one part shifted", View{Sub: &sub, Parts: with(shifted)}, false},
			{"a gap", View{Sub: &sub, Parts: slices.Delete(slices.Clone(parts), k, k+1)}, false},
			{"packed", Packed(dst), false},
		} {
			if got := tc.v.InPlace(dst, sub); got != tc.want {
				t.Fatalf("case %d (dims %v np %d, %d parts of %v) %s: InPlace %v, want %v",
					c, dims, np, len(parts), sizes, tc.name, got, tc.want)
			}
			if tc.v.InPlace(nil, sub) {
				t.Fatalf("case %d %s: in place in an empty dst", c, tc.name)
			}
			if tc.want {
				before := bytes.Clone(dst)
				tc.v.UnpackTo(dst, sub)
				if !bytes.Equal(dst, before) {
					t.Fatalf("case %d %s: an in-place unpack changed dst", c, tc.name)
				}
			}
		}
	}
}
