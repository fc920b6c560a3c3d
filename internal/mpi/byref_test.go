package mpi

import (
	"bytes"
	"fmt"
	"testing"

	"repro/internal/obs"
)

// Every collective delivers its payload by reference (the package's
// write-once rule). These tests pin both halves of that: the receiver holds
// the sender's very buffer, and nothing the virtual-time model sees — clocks,
// stats, span bytes — moved when the host-side clone went away. The expected
// figures are the ones the cloning implementation produced on the same case.

// rootedCase runs one collective on a fixed np=4 world (rank r contributes
// 1000*(r+1) bytes of byte(r), root 1) and returns what the model saw of it,
// formatted for comparison, the buffers the ranks contributed and what each
// rank was handed: held[rank][src] is the payload rank holds from rank src
// (nil where it holds none).
func rootedCase(t *testing.T, name string, op func(r *Rank, mine []byte, parts [][]byte) (got [][]byte)) (model string, sent [][]byte, held [][][]byte) {
	t.Helper()
	const np, root = 4, 1
	tr := obs.NewTracer()
	sent, held = make([][]byte, np), make([][][]byte, np)
	for i := range sent {
		sent[i] = bytes.Repeat([]byte{byte(i)}, 1000*(i+1))
	}
	now := make([]float64, np)
	bytesSent, msgsSent := make([]int64, np), make([]int64, np)
	runWorld(t, np, func(r *Rank) {
		tr.Attach(r.Proc(), r.Rank())
		var parts [][]byte
		if r.Rank() == root {
			parts = sent
		}
		held[r.Rank()] = op(r, sent[r.Rank()], parts)
		now[r.Rank()], bytesSent[r.Rank()], msgsSent[r.Rank()] = r.Now(), r.BytesSent(), r.MsgsSent()
	})
	var spanBytes []int64
	for _, sp := range tr.Spans() {
		if sp.Name == name {
			spanBytes = append(spanBytes, sp.Bytes)
		}
	}
	return fmt.Sprintf("now %v sent %v msgs %v spans %v", now, bytesSent, msgsSent, spanBytes), sent, held
}

// checkByReference fails unless every payload a rank holds is the very
// buffer its source contributed, and the ranks hold want payloads in all.
func checkByReference(t *testing.T, sent [][]byte, held [][][]byte, want int) {
	t.Helper()
	n := 0
	for rank, got := range held {
		for src, b := range got {
			if b == nil {
				continue
			}
			n++
			if !sameBuffer(b, sent[src]) {
				t.Errorf("rank %d's payload from rank %d is not rank %d's buffer", rank, src, src)
			}
		}
	}
	if n != want {
		t.Errorf("the ranks hold %d payloads, want %d", n, want)
	}
}

func sameBuffer(a, b []byte) bool {
	return len(a) > 0 && len(a) == len(b) && &a[0] == &b[0]
}

func checkModel(t *testing.T, model, want string) {
	t.Helper()
	if model != want {
		t.Errorf("model moved:\n got %s\nwant %s", model, want)
	}
}

func TestGathervDeliversByReference(t *testing.T) {
	model, sent, held := rootedCase(t, "gatherv", func(r *Rank, mine []byte, _ [][]byte) [][]byte {
		var got [][]byte
		for _, v := range r.Gatherv(1, Packed(mine)) {
			got = append(got, v.Base)
		}
		return got
	})
	checkByReference(t, sent, held, 4)
	checkModel(t, model, "now [1.1000000000000001e-05 9.200000000000001e-05 3.1e-05 4.1e-05] sent [1000 0 3000 4000] msgs [1 0 1 1] spans [1000 2000 3000 4000]")
}

func TestScattervDeliversByReference(t *testing.T) {
	model, sent, held := rootedCase(t, "scatterv", func(r *Rank, _ []byte, parts [][]byte) [][]byte {
		var views []View
		for _, p := range parts {
			views = append(views, Packed(p))
		}
		got := make([][]byte, r.Size())
		got[r.Rank()] = r.Scatterv(1, views).Base
		return got
	})
	checkByReference(t, sent, held, 4)
	checkModel(t, model, "now [2.2000000000000003e-05 8.5e-05 5.3e-05 9.400000000000001e-05] sent [0 8000 0 0] msgs [0 3 0 0] spans [0 10000 0 0]")
}

func TestBcastDeliversByReference(t *testing.T) {
	model, sent, held := rootedCase(t, "bcast", func(r *Rank, mine []byte, parts [][]byte) [][]byte {
		var data []byte
		if parts != nil {
			data = mine
		}
		got := make([][]byte, r.Size())
		got[1] = r.Bcast(1, data)
		return got
	})
	checkByReference(t, sent, held, 4)
	checkModel(t, model, "now [6.4e-05 4.2000000000000004e-05 5.3e-05 5.3e-05] sent [0 4000 0 2000] msgs [0 2 0 1] spans [0 2000 0 0]")
}

func TestAllgathervDeliversByReference(t *testing.T) {
	model, sent, held := rootedCase(t, "allgatherv", func(r *Rank, mine []byte, _ [][]byte) [][]byte {
		return r.Allgatherv(mine)
	})
	checkByReference(t, sent, held, 16)
	checkModel(t, model, "now [0.000291 0.00034100000000000005 0.0003520000000000001 0.000212] sent [8000 7000 6000 9000] msgs [3 3 3 3] spans [1000 2000 3000 4000]")
}

// TestAllreduceDeliversByReference holds AllreduceInt64 to the cloning
// code's model, and the reduction tree under it to by-reference delivery: a
// combine that keeps its accumulator forwards each rank's own buffer, so
// every operand a rank receives must be its sender's.
func TestAllreduceDeliversByReference(t *testing.T) {
	model, sent, held := rootedCase(t, "reduce", func(r *Rank, mine []byte, _ [][]byte) [][]byte {
		got := make([][]byte, r.Size())
		r.reduceBytes(1, mine, func(acc, in []byte) []byte {
			got[in[0]] = in
			return acc
		})
		if sum := r.AllreduceInt64(int64(len(mine)), OpSum); sum != 10000 {
			panic(fmt.Sprintf("rank %d: sum %d, want 10000", r.Rank(), sum))
		}
		return got
	})
	checkByReference(t, sent, held, 3)
	checkModel(t, model, "now [9.623999999999999e-05 0.00010723999999999998 0.00010723999999999998 0.00011823999999999998] sent [1016 8 3016 4008] msgs [3 1 3 2] spans [1000 8 2000 8 3000 8 4000 8]")
}

// TestRootedCollectivesChargeTheRootsCopy: the root's own part moves by
// reference but is charged as the local copy the modelled machine makes, at
// its packed size. In the np=4 cases above later arrivals hide that charge;
// alone in its world, a root's clock is exactly the two copies.
func TestRootedCollectivesChargeTheRootsCopy(t *testing.T) {
	base, subs := viewArray([3]int{4, 5, 6}, 2)
	for _, v := range []View{Packed(make([]byte, 1000)), {Base: base, Sub: &subs[1]}} {
		var now, want float64
		runWorld(t, 1, func(r *Rank) {
			r.Scatterv(0, r.Gatherv(0, v))
			c := r.World().Machine().CopyTime(v.Bytes())
			now, want = r.Now(), c+c
		})
		if now != want {
			t.Errorf("a %d-byte gather and scatter at a lone root took %g s, want two copies, %g s", v.Bytes(), now, want)
		}
	}
}

// BenchmarkGathervScatterv moves 1 MiB per rank to root and back at np=8.
// One engine run hosts all b.N round trips, so B/op is the steady-state host
// allocation per round trip summed over the ranks — the envelope and result
// slices only: payloads travel by reference, packed (each rank's own buffer)
// or as views that are never packed (each rank's block of a 128³ array of
// 4-byte elements).
func BenchmarkGathervScatterv(b *testing.B) {
	const np, part = 8, 1 << 20
	b.Run("packed", func(b *testing.B) {
		b.SetBytes(2 * np * part)
		b.ReportAllocs()
		_, err := Simulate(testConfig(np, 1), np, func(r *Rank) {
			mine := Packed(bytes.Repeat([]byte{byte(r.Rank())}, part))
			r.Barrier()
			if r.Rank() == 0 {
				b.ResetTimer()
			}
			for i := 0; i < b.N; i++ {
				mine = r.Scatterv(0, r.Gatherv(0, mine))
			}
		})
		if err != nil {
			b.Fatal(err)
		}
	})
	b.Run("views", func(b *testing.B) {
		base, subs := viewArray([3]int{128, 128, 128}, np)
		b.SetBytes(2 * np * part)
		b.ReportAllocs()
		_, err := Simulate(testConfig(np, 1), np, func(r *Rank) {
			var parts []View
			if r.Rank() == 0 {
				parts = make([]View, np)
				for i := range parts {
					parts[i] = View{Base: base, Sub: &subs[i]}
				}
			}
			mine := r.Scatterv(0, parts)
			r.Barrier()
			if r.Rank() == 0 {
				b.ResetTimer()
			}
			for i := 0; i < b.N; i++ {
				mine = r.Scatterv(0, r.Gatherv(0, mine))
			}
		})
		if err != nil {
			b.Fatal(err)
		}
	})
}

// BenchmarkBcastAllgatherAllreduce runs the small collectives the hierarchy
// and manifest exchanges stand on, at np = 8, 64 and 256: one op is a Bcast
// of 4 KiB from rank 0, an Allgatherv of 1 KiB per rank and an
// AllreduceInt64. One engine run hosts all b.N ops, so B/op and allocs/op
// are the host's steady-state cost of one op summed over the ranks.
func BenchmarkBcastAllgatherAllreduce(b *testing.B) {
	for _, np := range []int{8, 64, 256} {
		b.Run(fmt.Sprintf("np%d", np), func(b *testing.B) {
			b.ReportAllocs()
			_, err := Simulate(testConfig(np, 1), np, func(r *Rank) {
				var msg []byte
				if r.Rank() == 0 {
					msg = make([]byte, 4<<10)
				}
				mine := bytes.Repeat([]byte{byte(r.Rank())}, 1<<10)
				r.Barrier()
				if r.Rank() == 0 {
					b.ResetTimer()
				}
				for i := 0; i < b.N; i++ {
					r.Bcast(0, msg)
					r.Allgatherv(mine)
					r.AllreduceInt64(int64(i), OpSum)
				}
			})
			if err != nil {
				b.Fatal(err)
			}
		})
	}
}
