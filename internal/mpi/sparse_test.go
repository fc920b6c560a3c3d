package mpi

import (
	"bytes"
	"errors"
	"fmt"
	"math/bits"
	"math/rand"
	"slices"
	"strings"
	"testing"

	"repro/internal/sim"
)

// denseAlltoallv is the rotated pairwise exchange AlltoallvScratch ran before it
// went sparse: P-1 Send+Recv steps whether or not a part is empty. It stays
// here as the oracle the sparse exchange must agree with.
func denseAlltoallv(r *Rank, parts [][]byte) [][]byte {
	tag := r.collTag()
	size := r.Size()
	out := make([][]byte, size)
	out[r.rank] = append([]byte{}, parts[r.rank]...)
	for step := 1; step < size; step++ {
		dst := (r.rank + step) % size
		src := (r.rank - step + size) % size
		r.Send(dst, tag, parts[dst])
		out[src], _, _ = r.Recv(src, tag)
	}
	return out
}

// ringAllgatherInt64s is the ring AllgatherInt64 ran on before Bruck's
// algorithm: Allgatherv of the encoded block, decoded in rank order.
func ringAllgatherInt64s(r *Rank, vals []int64) []int64 {
	var enc []byte
	for _, v := range vals {
		enc = append(enc, encI64(v)...)
	}
	var out []int64
	for _, blk := range r.Allgatherv(enc) {
		for ; len(blk) > 0; blk = blk[8:] {
			out = append(out, decI64(blk))
		}
	}
	return out
}

// partMatrix draws what every rank sends every other: density 1 is a full
// alltoall, 0 an all-empty one, in between the sparse shape of two-phase I/O.
func partMatrix(rng *rand.Rand, np int, density float64) [][][]byte {
	m := make([][][]byte, np)
	for s := range m {
		m[s] = make([][]byte, np)
		for d := range m[s] {
			if rng.Float64() < density {
				m[s][d] = make([]byte, 1+rng.Intn(40))
				rng.Read(m[s][d])
			}
		}
	}
	return m
}

func sameParts(a, b [][]byte) bool {
	return slices.EqualFunc(a, b, func(x, y []byte) bool { return string(x) == string(y) })
}

var collectiveSizes = []int{1, 2, 3, 5, 8, 13, 64}

func TestSparseAlltoallvMatchesDensePairwise(t *testing.T) {
	for _, np := range collectiveSizes {
		for _, density := range []float64{1, 0.1, 0} {
			t.Run(fmt.Sprintf("np=%d/density=%g", np, density), func(t *testing.T) {
				m := partMatrix(rand.New(rand.NewSource(int64(np)*31+int64(density*10))), np, density)
				bad := make([]bool, np)
				runWorld(t, np, func(r *Rank) {
					want := denseAlltoallv(r, m[r.Rank()])
					bad[r.Rank()] = !sameParts(r.AlltoallvScratch(m[r.Rank()]), want)
				})
				for rank, b := range bad {
					if b {
						t.Errorf("rank %d: AlltoallvScratch differs from the dense pairwise exchange", rank)
					}
				}
			})
		}
	}
}

// An all-empty exchange must cost the count rounds and nothing else: that
// is the whole point of going sparse.
func TestEmptyAlltoallvSendsOnlyCountRounds(t *testing.T) {
	for _, np := range collectiveSizes {
		msgs := make([]int64, np)
		runWorld(t, np, func(r *Rank) {
			before := r.MsgsSent()
			r.AlltoallvScratch(make([][]byte, np))
			msgs[r.Rank()] = r.MsgsSent() - before
		})
		rounds := int64(bits.Len(uint(np - 1))) // ceil(log2 np)
		for rank, n := range msgs {
			if n != rounds {
				t.Errorf("np=%d rank %d sent %d messages for an all-empty alltoallv, want %d count rounds", np, rank, n, rounds)
			}
		}
	}
}

func TestBruckAllgatherMatchesRing(t *testing.T) {
	for _, np := range collectiveSizes {
		for _, block := range []int{1, 2, 5} {
			rng := rand.New(rand.NewSource(int64(np*10 + block)))
			vals := make([][]int64, np)
			for i := range vals {
				for k := 0; k < block; k++ {
					vals[i] = append(vals[i], rng.Int63()-rng.Int63())
				}
			}
			ok := make([]bool, np)
			msgs := make([]int64, np)
			runWorld(t, np, func(r *Rank) {
				want := ringAllgatherInt64s(r, vals[r.Rank()])
				before := r.MsgsSent()
				got := r.AllgatherInt64s(vals[r.Rank()])
				msgs[r.Rank()] = r.MsgsSent() - before
				ok[r.Rank()] = slices.Equal(got, want)
				if block == 1 {
					ok[r.Rank()] = ok[r.Rank()] && slices.Equal(r.AllgatherInt64(vals[r.Rank()][0]), want)
				}
			})
			for rank := range ok {
				if !ok[rank] {
					t.Errorf("np=%d block=%d rank %d: Bruck allgather differs from the ring", np, block, rank)
				}
				if want := int64(bits.Len(uint(np - 1))); msgs[rank] != want {
					t.Errorf("np=%d block=%d rank %d: %d messages, want %d rounds", np, block, rank, msgs[rank], want)
				}
			}
		}
	}
}

// ExchangeScratch moves exactly the listed pairs — one message each, empty
// parts included — and always hands the caller its own part back.
func TestExchangeScratchMovesListedPairsOnly(t *testing.T) {
	for _, np := range collectiveSizes {
		hops := []int{1, 3} // rank s sends to s+1 and s+3 (mod np)
		bad := make([]string, np)
		runWorld(t, np, func(r *Rank) {
			me := r.Rank()
			var sendTo, recvFrom []int
			parts := make([]View, np)
			parts[me] = Packed([]byte{byte(me), 0xee})
			for _, h := range hops {
				if d := (me + h) % np; !slices.Contains(sendTo, d) {
					sendTo = append(sendTo, d)
					if d != me && h == 1 { // the h=3 parts stay empty: listed, but nothing to say
						parts[d] = Packed([]byte{byte(me), byte(d)})
					}
				}
				if s := (me - h%np + np) % np; !slices.Contains(recvFrom, s) {
					recvFrom = append(recvFrom, s)
				}
			}
			slices.Sort(sendTo)
			slices.Sort(recvFrom)
			before := r.MsgsSent()
			got := make([]View, np) // the caller's, with a previous exchange's leftovers
			for i := range got {
				got[i] = Packed([]byte{0xff})
			}
			r.ExchangeScratch(got, parts, sendTo, recvFrom)
			remote := int64(len(sendTo))
			if slices.Contains(sendTo, me) {
				remote--
			}
			if n := r.MsgsSent() - before; n != remote {
				bad[me] = fmt.Sprintf("%d messages for %d remote destinations", n, remote)
			}
			for s := range got {
				var want []byte
				switch {
				case s == me:
					want = parts[me].Base
				case np > 1 && s == (me-1+np)%np:
					want = []byte{byte(s), byte(me)}
				}
				if string(got[s].Base) != string(want) {
					bad[me] = fmt.Sprintf("from %d got %v, want %v", s, got[s].Base, want)
				}
			}
		})
		for rank, msg := range bad {
			if msg != "" {
				t.Errorf("np=%d rank %d: %s", np, rank, msg)
			}
		}
	}
}

// The reason of a parked receive is formatted only when a deadlock is
// reported; the report text is what it always was.
func TestDeadlockReportNamesParkedReceives(t *testing.T) {
	_, err := Simulate(testConfig(2, 1), 2, func(r *Rank) {
		if r.Rank() == 0 {
			r.Recv(1, 5)
		} else {
			r.Irecv(AnySource, 7).Wait()
		}
	})
	var dl *sim.DeadlockError
	if !errors.As(err, &dl) {
		t.Fatalf("err = %v, want a deadlock", err)
	}
	want := "rank0@0.000000: Recv(src=1, tag=5); rank1@0.000000: Wait(Irecv src=-1, tag=7)"
	if got := strings.Join(dl.Blocked, "; "); got != want {
		t.Fatalf("blocked = %q\n   want   %q", got, want)
	}
}

// BenchmarkExchangeScratch times the sparse exchange in the shape two-phase
// I/O gives it at np=64: four aggregators, every rank sends its aggregator a
// 1 KiB message and gets a 1 KiB reply (the reply keeps the ranks in step,
// as a collective read's does). One engine run hosts all b.N round trips and
// every rank reuses its result slices, so B/op and allocs/op are the
// steady-state cost of two exchanges summed over the ranks.
func BenchmarkExchangeScratch(b *testing.B) {
	const np, naggs, part = 64, 4, 1 << 10
	b.ReportAllocs()
	_, err := Simulate(testConfig(np, 1), np, func(r *Rank) {
		me := r.Rank()
		agg := []int{me % naggs}
		var clients []int
		if me < naggs {
			for s := me; s < np; s += naggs {
				clients = append(clients, s)
			}
		}
		msg := Packed(bytes.Repeat([]byte{byte(me)}, part))
		reqs, replies := make([]View, np), make([]View, np)
		reqs[agg[0]] = msg
		for _, s := range clients {
			replies[s] = msg
		}
		heard, got := make([]View, np), make([]View, np)
		r.Barrier()
		if me == 0 {
			b.ResetTimer()
		}
		for i := 0; i < b.N; i++ {
			r.ExchangeScratch(heard, reqs, agg, clients)
			r.ExchangeScratch(got, replies, clients, agg)
		}
	})
	if err != nil {
		b.Fatal(err)
	}
}
