package mpi

import (
	"bytes"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"sync"
	"testing"

	"repro/internal/machine"
)

// testConfig is a small, fast platform for unit tests.
func testConfig(nodes, ppn int) machine.Config {
	return machine.Config{
		Name:         "test",
		Nodes:        nodes,
		ProcsPerNode: ppn,
		WireLatency:  10e-6,
		LinkBW:       100e6,
		SendOverhead: 1e-6,
		RecvOverhead: 1e-6,
		MemLatency:   1e-6,
		MemCopyBW:    1e9,
		ComputeRate:  1e9,
	}
}

func runWorld(t *testing.T, nprocs int, body func(r *Rank)) float64 {
	t.Helper()
	makespan, err := Simulate(testConfig(nprocs, 1), nprocs, body)
	if err != nil {
		t.Fatal(err)
	}
	return makespan
}

func TestSendRecvBasic(t *testing.T) {
	var got []byte
	runWorld(t, 2, func(r *Rank) {
		if r.Rank() == 0 {
			r.Send(1, 7, []byte("hello"))
		} else {
			data, src, tag := r.Recv(0, 7)
			if src != 0 || tag != 7 {
				panic(fmt.Sprintf("envelope src=%d tag=%d", src, tag))
			}
			got = data
		}
	})
	if string(got) != "hello" {
		t.Fatalf("received %q", got)
	}
}

func TestSendCopiesBuffer(t *testing.T) {
	var got []byte
	runWorld(t, 2, func(r *Rank) {
		if r.Rank() == 0 {
			buf := []byte("aaaa")
			r.Send(1, 1, buf)
			copy(buf, "zzzz") // must not affect the message
			r.Barrier()
		} else {
			r.Barrier()
			got, _, _ = r.Recv(0, 1)
		}
	})
	if string(got) != "aaaa" {
		t.Fatalf("message was not copied at send time: %q", got)
	}
}

func TestRecvAnySourceAnyTag(t *testing.T) {
	srcs := map[int]bool{}
	runWorld(t, 3, func(r *Rank) {
		if r.Rank() == 0 {
			for i := 0; i < 2; i++ {
				_, src, _ := r.Recv(AnySource, AnyTag)
				srcs[src] = true
			}
		} else {
			r.Send(0, 100+r.Rank(), []byte{byte(r.Rank())})
		}
	})
	if !srcs[1] || !srcs[2] {
		t.Fatalf("sources = %v, want both 1 and 2", srcs)
	}
}

func TestRecvMatchesEarliestArrival(t *testing.T) {
	var order []int
	runWorld(t, 3, func(r *Rank) {
		switch r.Rank() {
		case 0:
			r.Proc().Advance(1) // ensure both messages are in flight
			for i := 0; i < 2; i++ {
				_, src, _ := r.Recv(AnySource, 5)
				order = append(order, src)
			}
		case 1:
			r.Proc().Advance(0.5) // sends second
			r.Send(0, 5, make([]byte, 10))
		case 2:
			r.Send(0, 5, make([]byte, 10)) // sends first at t=0
		}
	})
	if len(order) != 2 || order[0] != 2 || order[1] != 1 {
		t.Fatalf("delivery order = %v, want [2 1] (earliest arrival first)", order)
	}
}

func TestTagSelectivity(t *testing.T) {
	var first, second int
	runWorld(t, 2, func(r *Rank) {
		if r.Rank() == 0 {
			r.Send(1, 10, []byte{1})
			r.Send(1, 20, []byte{2})
		} else {
			// Receive tag 20 first even though tag 10 arrived earlier.
			d1, _, _ := r.Recv(0, 20)
			d2, _, _ := r.Recv(0, 10)
			first, second = int(d1[0]), int(d2[0])
		}
	})
	if first != 2 || second != 1 {
		t.Fatalf("got %d,%d want 2,1", first, second)
	}
}

func TestTransferTimeReflectsBandwidth(t *testing.T) {
	// A 100 MB message on a 100 MB/s link must take about a second.
	cfg := testConfig(2, 1)
	var recvTime float64
	_, err := Simulate(cfg, 2, func(r *Rank) {
		if r.Rank() == 0 {
			r.Send(1, 1, make([]byte, 100_000_000))
		} else {
			r.Recv(0, 1)
			recvTime = r.Now()
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	if recvTime < 1.0 || recvTime > 1.1 {
		t.Fatalf("100MB over 100MB/s arrived at %g s, want ~1 s", recvTime)
	}
}

func TestIntraNodeFasterThanInterNode(t *testing.T) {
	// Ranks 0,1 on node 0; rank 2 on node 1.
	cfg := testConfig(2, 2)
	var intra, inter float64
	_, err := Simulate(cfg, 3, func(r *Rank) {
		switch r.Rank() {
		case 0:
			r.Send(1, 1, make([]byte, 1_000_000))
			r.Send(2, 2, make([]byte, 1_000_000))
		case 1:
			r.Recv(0, 1)
			intra = r.Now()
		case 2:
			r.Recv(0, 2)
			inter = r.Now()
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	if intra >= inter {
		t.Fatalf("intra-node %g s should beat inter-node %g s", intra, inter)
	}
}

func TestBarrierSynchronizes(t *testing.T) {
	after := make([]float64, 4)
	runWorld(t, 4, func(r *Rank) {
		r.Proc().Advance(float64(r.Rank())) // ranks arrive at 0,1,2,3
		r.Barrier()
		after[r.Rank()] = r.Now()
	})
	for i, v := range after {
		if v < 3 {
			t.Fatalf("rank %d left barrier at %g, before the last arrival at 3", i, v)
		}
	}
}

func TestBcastAllRootsAllSizes(t *testing.T) {
	for _, n := range []int{1, 2, 3, 4, 5, 8} {
		for root := 0; root < n; root++ {
			payload := []byte(fmt.Sprintf("payload-from-%d", root))
			results := make([][]byte, n)
			runWorld(t, n, func(r *Rank) {
				var in []byte
				if r.Rank() == root {
					in = payload
				}
				results[r.Rank()] = r.Bcast(root, in)
			})
			for i, res := range results {
				if !bytes.Equal(res, payload) {
					t.Fatalf("n=%d root=%d rank=%d got %q", n, root, i, res)
				}
			}
		}
	}
}

func TestGathervScattervRoundTrip(t *testing.T) {
	for _, n := range []int{1, 2, 3, 7} {
		root := n / 2
		var gathered [][]byte
		runWorld(t, n, func(r *Rank) {
			mine := bytes.Repeat([]byte{byte(r.Rank() + 1)}, r.Rank()+1)
			g := r.Gatherv(root, mine)
			if r.Rank() == root {
				gathered = g
			}
			// Scatter back.
			var parts [][]byte
			if r.Rank() == root {
				parts = g
			}
			back := r.Scatterv(root, parts)
			if !bytes.Equal(back, mine) {
				panic(fmt.Sprintf("rank %d scatter mismatch", r.Rank()))
			}
		})
		if len(gathered) != n {
			t.Fatalf("n=%d gathered %d parts", n, len(gathered))
		}
		for i, g := range gathered {
			want := bytes.Repeat([]byte{byte(i + 1)}, i+1)
			if !bytes.Equal(g, want) {
				t.Fatalf("n=%d part %d = %v, want %v", n, i, g, want)
			}
		}
	}
}

func TestAllgatherv(t *testing.T) {
	for _, n := range []int{1, 2, 3, 4, 6} {
		ok := make([]bool, n)
		runWorld(t, n, func(r *Rank) {
			mine := []byte{byte(r.Rank()), byte(r.Rank() * 2)}
			all := r.Allgatherv(mine)
			good := len(all) == n
			for i := 0; good && i < n; i++ {
				good = bytes.Equal(all[i], []byte{byte(i), byte(i * 2)})
			}
			ok[r.Rank()] = good
		})
		for i, g := range ok {
			if !g {
				t.Fatalf("n=%d rank %d got wrong allgather result", n, i)
			}
		}
	}
}

func TestAlltoallv(t *testing.T) {
	for _, n := range []int{1, 2, 3, 5, 8} {
		ok := make([]bool, n)
		runWorld(t, n, func(r *Rank) {
			parts := make([][]byte, n)
			for d := 0; d < n; d++ {
				parts[d] = []byte{byte(r.Rank()), byte(d)} // (from, to)
			}
			got := r.Alltoallv(parts)
			good := len(got) == n
			for s := 0; good && s < n; s++ {
				good = bytes.Equal(got[s], []byte{byte(s), byte(r.Rank())})
			}
			ok[r.Rank()] = good
		})
		for i, g := range ok {
			if !g {
				t.Fatalf("n=%d rank %d alltoallv mismatch", n, i)
			}
		}
	}
}

func TestReduceAllreduce(t *testing.T) {
	for _, n := range []int{1, 2, 3, 4, 7, 8} {
		sums := make([]int64, n)
		maxs := make([]int64, n)
		mins := make([]float64, n)
		rootSum := int64(-1)
		runWorld(t, n, func(r *Rank) {
			v := int64(r.Rank() + 1)
			if s := r.ReduceInt64(0, v, OpSum); r.Rank() == 0 {
				rootSum = s
			}
			sums[r.Rank()] = r.AllreduceInt64(v, OpSum)
			maxs[r.Rank()] = r.AllreduceInt64(v, OpMax)
			mins[r.Rank()] = r.AllreduceFloat64(float64(v)*0.5, OpMin)
		})
		wantSum := int64(n * (n + 1) / 2)
		if rootSum != wantSum {
			t.Fatalf("n=%d root reduce sum = %d, want %d", n, rootSum, wantSum)
		}
		for i := 0; i < n; i++ {
			if sums[i] != wantSum {
				t.Fatalf("n=%d rank %d allreduce sum = %d, want %d", n, i, sums[i], wantSum)
			}
			if maxs[i] != int64(n) {
				t.Fatalf("n=%d rank %d allreduce max = %d, want %d", n, i, maxs[i], n)
			}
			if mins[i] != 0.5 {
				t.Fatalf("n=%d rank %d allreduce min = %g, want 0.5", n, i, mins[i])
			}
		}
	}
}

func TestExscan(t *testing.T) {
	n := 6
	res := make([]int64, n)
	runWorld(t, n, func(r *Rank) {
		res[r.Rank()] = r.ExscanInt64(int64(10 * (r.Rank() + 1)))
	})
	want := []int64{0, 10, 30, 60, 100, 150}
	for i := range want {
		if res[i] != want[i] {
			t.Fatalf("exscan = %v, want %v", res, want)
		}
	}
}

func TestDeterministicTimings(t *testing.T) {
	run := func() float64 {
		makespan, err := Simulate(testConfig(8, 1), 8, func(r *Rank) {
			rng := rand.New(rand.NewSource(int64(r.Rank())))
			for i := 0; i < 5; i++ {
				data := make([]byte, rng.Intn(10000))
				dst := (r.Rank() + 1 + rng.Intn(7)) % 8
				if dst == r.Rank() {
					dst = (dst + 1) % 8
				}
				r.Send(dst, 3, data)
			}
			r.Barrier()
			for r.takeMatch(AnySource, 3, math.Inf(1)) != nil {
				// drain
			}
		})
		if err != nil {
			t.Fatal(err)
		}
		return makespan
	}
	a, b := run(), run()
	if a != b {
		t.Fatalf("nondeterministic makespans: %g vs %g", a, b)
	}
}

// TestTakeMatchOrderAndAllocs: the one inbox match takes the earliest
// matching arrival at or before the cutoff, then the lowest sequence
// number, and allocates nothing; it runs on every receive.
func TestTakeMatchOrderAndAllocs(t *testing.T) {
	msgs := make([]*message, 8)
	for i := range msgs {
		// Arrivals 4, 4, 3, 3, 2, 2, 1, 1; sources alternate 0, 1.
		msgs[i] = &message{src: i % 2, tag: 3, arrival: float64(4 - i/2), seq: int64(i)}
	}
	r := &Rank{}
	var got []int64
	take := func(src int, cutoff float64) {
		for m := r.takeMatch(src, AnySource, cutoff); m != nil; m = r.takeMatch(src, AnySource, cutoff) {
			got = append(got, m.seq)
		}
	}
	r.inbox = append(r.inbox, msgs...)
	take(1, 2)
	take(AnySource, math.Inf(1))
	want := []int64{7, 5, 6, 4, 2, 3, 0, 1}
	if !slices.Equal(got, want) || len(r.inbox) != 0 {
		t.Fatalf("took %v (%d left), want %v", got, len(r.inbox), want)
	}

	got = make([]int64, 0, len(msgs))
	if allocs := testing.AllocsPerRun(100, func() {
		got = got[:0]
		r.inbox = append(r.inbox[:0], msgs...)
		take(1, 2)
		take(AnySource, math.Inf(1))
	}); allocs != 0 {
		t.Fatalf("takeMatch allocates %.1f times per drain, want 0", allocs)
	}
}

func TestSendToInvalidRankPanics(t *testing.T) {
	_, err := Simulate(testConfig(2, 1), 2, func(r *Rank) {
		if r.Rank() == 0 {
			r.Send(5, 0, nil)
		}
	})
	if err == nil {
		t.Fatal("expected error from invalid destination")
	}
}

func TestSendrecvExchange(t *testing.T) {
	n := 4
	ok := make([]bool, n)
	runWorld(t, n, func(r *Rank) {
		right := (r.Rank() + 1) % n
		left := (r.Rank() - 1 + n) % n
		got := r.Sendrecv(right, []byte{byte(r.Rank())}, left, 9)
		ok[r.Rank()] = len(got) == 1 && got[0] == byte(left)
	})
	for i, g := range ok {
		if !g {
			t.Fatalf("rank %d sendrecv failed", i)
		}
	}
}

func TestStatsCounters(t *testing.T) {
	var sent, msgs int64
	runWorld(t, 2, func(r *Rank) {
		if r.Rank() == 0 {
			r.Send(1, 1, make([]byte, 100))
			r.Send(1, 1, make([]byte, 50))
			sent, msgs = r.BytesSent(), r.MsgsSent()
		} else {
			r.Recv(0, 1)
			r.Recv(0, 1)
		}
	})
	if sent != 150 || msgs != 2 {
		t.Fatalf("sent=%d msgs=%d, want 150,2", sent, msgs)
	}
}

func TestConcurrentWorldsIndependent(t *testing.T) {
	var wg sync.WaitGroup
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			_, err := Simulate(testConfig(4, 1), 4, func(r *Rank) {
				r.Barrier()
				r.AllreduceInt64(1, OpSum)
			})
			if err != nil {
				t.Error(err)
			}
		}()
	}
	wg.Wait()
}

func TestGathervIncastSerializesAtRootNIC(t *testing.T) {
	// 8 ranks each send 10 MB to root over 100 MB/s links: the root NIC
	// must serialize ~70 MB of inbound traffic, so the gather takes at
	// least 0.7 s (not the 0.1 s a single transfer would).
	makespan := runWorld(t, 8, func(r *Rank) {
		r.Gatherv(0, make([]byte, 10_000_000))
	})
	if makespan < 0.69 {
		t.Fatalf("gather makespan %g s, want >= 0.7 s (incast serialization)", makespan)
	}
}
