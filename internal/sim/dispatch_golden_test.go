package sim

import (
	"bytes"
	"crypto/sha256"
	"fmt"
	"math"
	"math/rand"
	"strconv"
	"strings"
	"testing"

	"repro/internal/golden"
)

// dispatchProgram is the TestHeapMatchesReferenceOracle workload generalised
// over process count, seed and server discipline: every process logs
// "p<i>#<k>@<now>" at each of its steps and then advances, queues on a shared
// server, wakes a blocked peer or blocks. Process 0 never blocks and sweeps
// blocked peers awake until all have finished, so the program cannot
// deadlock. It returns one golden line: trace length and digest, Events()
// and the final clocks as float bits.
func dispatchProgram(t *testing.T, newEngine func() *Engine, nprocs int, seed int64, fair bool) string {
	t.Helper()
	e := newEngine()
	var trace bytes.Buffer
	lines := 0
	procs := make([]*Proc, nprocs)
	disk := NewServer("disk")
	if fair {
		disk.SetPolicy(FairQueue(map[int]float64{0: 1, 1: 2, 2: 4}))
	}
	for i := 0; i < nprocs; i++ {
		id := i
		rng := rand.New(rand.NewSource(seed*1000 + int64(i)))
		procs[i] = e.Spawn(fmt.Sprintf("p%d", i), func(p *Proc) {
			p.SetClass(id % 3)
			for k := 0; k < 40; k++ {
				fmt.Fprintf(&trace, "p%d#%d@%s\n", id, k, strconv.FormatFloat(p.Now(), 'g', -1, 64))
				lines++
				switch rng.Intn(4) {
				case 0:
					p.Advance(rng.Float64())
				case 1:
					_, end := disk.ServeClass(p.Class(), p.Now(), 0.01+rng.Float64()/10)
					p.AdvanceTo(end)
				case 2:
					peer := rng.Intn(nprocs)
					if peer != id && procs[peer].state == stateBlocked {
						e.Wake(procs[peer], p.Now()+rng.Float64())
					}
					p.Advance(rng.Float64() / 4)
				case 3:
					if id != 0 {
						p.Block("awaiting sweep or peer wake")
					} else {
						p.Yield()
					}
				}
			}
			if id == 0 {
				for e.done < nprocs-1 {
					for _, q := range procs[1:] {
						if q.state == stateBlocked {
							e.Wake(q, p.Now()+rng.Float64()/2)
						}
					}
					p.Advance(0.5)
				}
			}
		})
	}
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	return fmt.Sprintf("lines=%d sha256=%x events=%d clocks=%s",
		lines, sha256.Sum256(trace.Bytes()), e.Events(), clockBits(e))
}

func clockBits(e *Engine) string {
	bits := make([]string, len(e.procs))
	for i, p := range e.procs {
		bits[i] = fmt.Sprintf("%016x", math.Float64bits(p.now))
	}
	return strings.Join(bits, ",")
}

type recvReason struct{ src, tag int }

func (r recvReason) String() string { return fmt.Sprintf("recv from %d tag %d", r.src, r.tag) }

// deadlockProgram ends in a DeadlockError whose report mixes Block and
// BlockOn reasons, with one process finished and one woken once and blocked
// again under another reason.
func deadlockProgram(newEngine func() *Engine) string {
	e := newEngine()
	e.Spawn("finisher", func(p *Proc) { p.Advance(1) })
	e.Spawn("recv", func(p *Proc) {
		p.Advance(2.5)
		p.BlockOn(recvReason{src: 3, tag: 7})
	})
	lock := e.Spawn("lock", func(p *Proc) {
		p.Block("waiting for lock")
		p.Advance(0.25)
		p.Block("waiting for lock again")
	})
	e.Spawn("waker", func(p *Proc) {
		p.Advance(1)
		e.Wake(lock, p.Now()+0.5)
		p.BlockOn(recvReason{src: 0, tag: 1})
	})
	e.Spawn("late", func(p *Proc) {
		p.Advance(3)
		p.Block("barrier 2 of 5")
	})
	return failedRun(e)
}

// panicProgram ends in a PanicError raised at t=0 while one peer is blocked,
// one is parked ready in the future and one (a later id at the same time) has
// never been dispatched.
func panicProgram(newEngine func() *Engine) string {
	e := newEngine()
	e.Spawn("blocked", func(p *Proc) { p.Block("never woken") })
	e.Spawn("ready", func(p *Proc) {
		for {
			p.Advance(5)
		}
	})
	e.Spawn("bomb", func(p *Proc) { panic(fmt.Errorf("rank %d: bad checksum", p.ID())) })
	e.Spawn("never", func(p *Proc) { p.Advance(1) })
	return failedRun(e)
}

func failedRun(e *Engine) string {
	err := e.Run()
	return fmt.Sprintf("events=%d clocks=%s error=%q", e.Events(), clockBits(e), fmt.Sprint(err))
}

// TestDispatchGolden pins the engine's dispatch sequence to a file generated
// before the switching mechanism was changed: NewReferenceEngine shares that
// mechanism with NewEngine, so it can vouch for the pick order but not for
// who runs when. Every program must produce the golden line on both engines.
//
// Regenerate with: go test ./internal/sim -run '^TestDispatchGolden$' -update
func TestDispatchGolden(t *testing.T) {
	var out strings.Builder
	pin := func(name string, run func(newEngine func() *Engine) string) {
		line := name + " " + run(NewEngine)
		if ref := name + " " + run(NewReferenceEngine); ref != line {
			t.Errorf("reference engine differs from the heap engine\n got %s\nwant %s", ref, line)
		}
		out.WriteString(line + "\n")
	}
	for _, np := range []int{2, 12, 64} {
		for _, seed := range []int64{1, 2, 3} {
			for _, fair := range []bool{false, true} {
				server := "fifo"
				if fair {
					server = "fair"
				}
				pin(fmt.Sprintf("np%d/seed%d/%s", np, seed, server), func(newEngine func() *Engine) string {
					return dispatchProgram(t, newEngine, np, seed, fair)
				})
			}
		}
	}
	pin("deadlock", deadlockProgram)
	pin("panic", panicProgram)
	golden.Check(t, "testdata/dispatch.golden", []byte(out.String()))
}
