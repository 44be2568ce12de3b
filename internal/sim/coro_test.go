package sim

import (
	"errors"
	"runtime"
	"testing"
	"time"
)

// TestEventQueueOrdersByTimeThenSeq is a seeded property test of the
// event heap: with many colliding times and pushes interleaved with pops,
// events must leave in (at, seq) order, so equal times stay FIFO.
func TestEventQueueOrdersByTimeThenSeq(t *testing.T) {
	for seed := uint64(1); seed <= 20; seed++ {
		rng := NewRand(seed)
		e := NewEnv()
		var last event
		popped := 0
		check := func() {
			ev := e.pop()
			if popped > 0 && !last.before(&ev) {
				t.Fatalf("seed %d: popped (%d,%d) after (%d,%d)", seed, ev.at, ev.seq, last.at, last.seq)
			}
			last = ev
			popped++
		}
		for i := 0; i < 2000; i++ {
			// Times never go below the last popped one, as in Run.
			e.schedule(nil, last.at+Time(rng.Intn(8)))
			if rng.Intn(3) == 0 {
				check()
			}
		}
		for len(e.queue) > 0 {
			check()
		}
		if popped != 2000 {
			t.Fatalf("seed %d: popped %d events, want 2000", seed, popped)
		}
	}
}

// TestDelaySteadyStateAllocs pins the allocation-free event path: once the
// queue has grown, a Delay (schedule, suspend, pop, resume) allocates
// nothing.
func TestDelaySteadyStateAllocs(t *testing.T) {
	env := NewEnv()
	var allocs float64
	env.Go("worker", func(p *Proc) {
		allocs = testing.AllocsPerRun(1000, func() { p.Delay(1) })
	})
	env.Run()
	if allocs != 0 {
		t.Errorf("Delay allocates %v times per call, want 0", allocs)
	}
}

// waitGoroutines polls until the goroutine count drops to want, giving
// exiting goroutines a moment to be reaped.
func waitGoroutines(t *testing.T, want int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > want && time.Now().Before(deadline) {
		runtime.Gosched()
		time.Sleep(time.Millisecond)
	}
	if got := runtime.NumGoroutine(); got > want {
		t.Fatalf("%d goroutines remain, want at most the baseline %d", got, want)
	}
}

// deadlocked returns an environment whose "waiter" blocks forever on a
// resource its "holder" never releases. unwound counts the waiter
// bodies that ran their deferred calls.
func deadlocked(unwound *int) *Env {
	e := NewEnv()
	r := e.NewResource(1)
	e.Go("holder", func(p *Proc) {
		r.Acquire(p, 1)
		p.Delay(3)
	})
	e.Go("waiter", func(p *Proc) {
		defer func() { *unwound++ }()
		p.Delay(1)
		r.Acquire(p, 1)
		panic("sim: stopped waiter resumed")
	})
	return e
}

// TestBlockedProcessesDoNotLeak checks that Run releases the coroutine of
// every process still blocked when it returns through the watchdog or
// panics with ErrDeadlock: the goroutine count returns to its baseline and
// each stopped body runs its deferred calls.
func TestBlockedProcessesDoNotLeak(t *testing.T) {
	base := runtime.NumGoroutine()
	const runs = 50
	unwound := 0
	for i := 0; i < runs; i++ {
		e := deadlocked(&unwound)
		e.SetWatchdog(NewWatchdog(2, nil))
		e.Run()
	}
	for i := 0; i < runs; i++ {
		func() {
			defer func() {
				if err, ok := recover().(error); !ok || !errors.Is(err, ErrDeadlock) {
					t.Fatalf("run %d: want an ErrDeadlock panic", i)
				}
			}()
			deadlocked(&unwound).Run()
		}()
	}
	if unwound != 2*runs {
		t.Errorf("%d blocked bodies unwound, want %d", unwound, 2*runs)
	}
	waitGoroutines(t, base)
}

// TestProcessPanicUnwindsFromRun pins the panic semantics: a panic in a
// process body re-panics from Run in the caller's goroutine with the
// original value, and the other suspended processes are stopped.
func TestProcessPanicUnwindsFromRun(t *testing.T) {
	base := runtime.NumGoroutine()
	boom := errors.New("boom")
	env := NewEnv()
	sig := env.NewSignal()
	env.Go("sleeper", func(p *Proc) { p.Delay(1000) })
	env.Go("waiter", func(p *Proc) { sig.Wait(p) })
	env.Go("bomb", func(p *Proc) {
		p.Delay(10)
		panic(boom)
	})
	func() {
		defer func() {
			if v := recover(); v != boom {
				t.Fatalf("Run panicked with %v, want the body's value %v", v, boom)
			}
		}()
		env.Run()
		t.Fatal("Run returned normally after a process panicked")
	}()
	if env.Now() != 10 {
		t.Errorf("clock at panic = %d, want 10", env.Now())
	}
	waitGoroutines(t, base)
}
