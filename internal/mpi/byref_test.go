package mpi

import (
	"bytes"
	"fmt"
	"testing"

	"repro/internal/obs"
)

// The rooted collectives deliver payloads by reference (the package's
// write-once rule). These tests pin both halves of that: the receiver holds
// the sender's very buffer, and nothing the virtual-time model sees — clocks,
// stats, span bytes — moved when the host-side clone went away. The expected
// figures are the ones the cloning implementation produced on the same case.

// rootedCase runs one rooted collective on a fixed np=4 world (rank r
// contributes 1000*(r+1) bytes of byte(r), root 1) and returns what the
// model saw of it, formatted for comparison.
func rootedCase(t *testing.T, name string, op func(r *Rank, mine []byte, parts [][]byte) (got [][]byte)) (model string, sent, held [][]byte) {
	t.Helper()
	const np, root = 4, 1
	tr := obs.NewTracer()
	sent, held = make([][]byte, np), make([][]byte, np)
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
		for i, b := range op(r, sent[r.Rank()], parts) {
			if b != nil {
				held[i] = b
			}
		}
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

func sameBuffer(a, b []byte) bool {
	return len(a) > 0 && len(a) == len(b) && &a[0] == &b[0]
}

func TestGathervDeliversByReference(t *testing.T) {
	model, sent, held := rootedCase(t, "gatherv", func(r *Rank, mine []byte, _ [][]byte) [][]byte {
		return r.Gatherv(1, mine)
	})
	for src := range sent {
		if !sameBuffer(held[src], sent[src]) {
			t.Errorf("root's out[%d] is not rank %d's buffer", src, src)
		}
	}
	const want = "now [1.1000000000000001e-05 9.200000000000001e-05 3.1e-05 4.1e-05] sent [1000 0 3000 4000] msgs [1 0 1 1] spans [1000 2000 3000 4000]"
	if model != want {
		t.Errorf("model moved:\n got %s\nwant %s", model, want)
	}
}

func TestScattervDeliversByReference(t *testing.T) {
	model, sent, held := rootedCase(t, "scatterv", func(r *Rank, _ []byte, parts [][]byte) [][]byte {
		got := make([][]byte, r.Size())
		got[r.Rank()] = r.Scatterv(1, parts)
		return got
	})
	for dst := range sent {
		if !sameBuffer(held[dst], sent[dst]) {
			t.Errorf("rank %d's part is not root's parts[%d]", dst, dst)
		}
	}
	const want = "now [2.2000000000000003e-05 8.5e-05 5.3e-05 9.400000000000001e-05] sent [0 8000 0 0] msgs [0 3 0 0] spans [0 10000 0 0]"
	if model != want {
		t.Errorf("model moved:\n got %s\nwant %s", model, want)
	}
}

// BenchmarkGathervScatterv moves 1 MiB per rank to root and back at np=8.
// One engine run hosts all b.N round trips, so B/op is the steady-state host
// allocation per round trip summed over the ranks — the envelope and result
// slices only, now that payloads travel by reference.
func BenchmarkGathervScatterv(b *testing.B) {
	const np, part = 8, 1 << 20
	b.SetBytes(2 * np * part)
	b.ReportAllocs()
	_, err := Simulate(testConfig(np, 1), np, func(r *Rank) {
		mine := bytes.Repeat([]byte{byte(r.Rank())}, part)
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
}
