package sim

import (
	"errors"
	"fmt"
	"testing"
)

// The three costs of the scheduler, each normalised per dispatch (ns/event)
// so that a run at another -benchtime or process count reads the same. Run
// them from this directory at the parent commit and at a change:
//
//	go test -run '^$' -bench 'Dispatch|Handoff|RunTeardown' -benchmem ./internal/sim

func reportPerEvent(b *testing.B, events int64) {
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(events), "ns/event")
}

// BenchmarkDispatch is 64 processes advancing by unequal steps, so clocks
// interleave and most Advances lose the minimum: the heap push/pop and the
// switch through the scheduler loop. The shape of bench/probes.go's
// sim.dispatch probe.
func BenchmarkDispatch(b *testing.B) {
	const procs, advances = 64, 2000
	var events int64
	b.ReportAllocs()
	for n := 0; n < b.N; n++ {
		e := NewEngine()
		for i := 0; i < procs; i++ {
			step := 1e-6 * float64(1+i%7)
			e.Spawn(fmt.Sprintf("p%d", i), func(p *Proc) {
				for k := 0; k < advances; k++ {
					p.Advance(step)
				}
			})
		}
		if err := e.Run(); err != nil {
			b.Fatal(err)
		}
		events += e.Events()
	}
	reportPerEvent(b, events)
}

// BenchmarkHandoff is two processes in a Block/Wake ping-pong: every event is
// a switch from one process to the other with an empty ready queue between.
func BenchmarkHandoff(b *testing.B) {
	const rounds = 20000
	var events int64
	b.ReportAllocs()
	for n := 0; n < b.N; n++ {
		e := NewEngine()
		var ping, pong *Proc
		ping = e.Spawn("ping", func(p *Proc) {
			for k := 0; k < rounds; k++ {
				p.Block("ping")
				e.Wake(pong, p.Now())
			}
		})
		pong = e.Spawn("pong", func(p *Proc) {
			for k := 0; k < rounds; k++ {
				e.Wake(ping, p.Now())
				p.Block("pong")
			}
		})
		if err := e.Run(); err != nil {
			b.Fatal(err)
		}
		events += e.Events()
	}
	reportPerEvent(b, events)
}

// BenchmarkRunTeardown is start-up and release: 1024 processes are spawned,
// each is dispatched once and blocks, and the resulting deadlock unwinds all
// of them. One event per process, so ns/event is the whole per-process cost
// of creating, entering and killing it — where a coroutine is dearer than a
// goroutine parked on a channel.
func BenchmarkRunTeardown(b *testing.B) {
	const procs = 1024
	var events int64
	b.ReportAllocs()
	for n := 0; n < b.N; n++ {
		e := NewEngine()
		for i := 0; i < procs; i++ {
			e.Spawn("stuck", func(p *Proc) { p.Block("never woken") })
		}
		var dl *DeadlockError
		if err := e.Run(); !errors.As(err, &dl) || len(dl.Blocked) != procs {
			b.Fatalf("want a deadlock of %d processes, got %v", procs, err)
		}
		events += e.Events()
	}
	reportPerEvent(b, events)
}
