// Package sim provides a deterministic discrete-event simulator with a
// virtual clock measured in CPU cycles.
//
// Workloads (httpd worker threads, MySQL connection handlers, PMO benchmark
// threads) run as simulated processes: coroutines that advance virtual time
// with Delay, contend on Resources, and wait on Signals. Exactly one process
// executes at any instant — the environment resumes a process, which runs
// until it blocks or finishes and only then hands control back — so runs
// are fully deterministic for a fixed spawn order and seed.
package sim

import (
	"errors"
	"fmt"
)

// ErrDeadlock is the sentinel carried by the panic Run raises when
// processes remain blocked with an empty event queue. The panic value is
// an error, so a recover handler can classify it with
// errors.Is(v.(error), ErrDeadlock).
var ErrDeadlock = errors.New("sim: deadlock")

// Time is a point in virtual time, measured in cycles.
type Time uint64

// Tracer receives the simulator's event stream: one span per completed
// Delay, on the track of the delaying process. metrics.Trace satisfies
// this interface, rendering the stream as Chrome trace-event JSON.
type Tracer interface {
	Span(name string, tid int, start, dur uint64)
}

// Env is a discrete-event simulation environment.
type Env struct {
	now     Time
	seq     uint64
	queue   eventQueue
	procs   int     // live (spawned, not yet finished) processes
	spawned int     // total processes ever spawned (assigns Proc ids)
	blocked int     // processes blocked on a resource/signal (no pending event)
	live    []*Proc // spawned processes, finished ones pruned lazily
	tracer  Tracer
	wd      *Watchdog
}

// NewEnv returns an empty environment with the clock at zero.
func NewEnv() *Env {
	return &Env{}
}

// Now returns the current virtual time.
func (e *Env) Now() Time { return e.now }

// SetTracer installs a sink for the environment's event stream. A nil
// tracer (the default) disables tracing at the cost of one branch per
// Delay.
func (e *Env) SetTracer(t Tracer) { e.tracer = t }

// SetWatchdog attaches a watchdog to the environment. With one attached,
// Run no longer panics on a simulation deadlock: it stops the blocked
// processes, feeds the watchdog repeated observations of the frozen clock
// until it fires (invoking its onStall recovery callback) and then
// returns. Without a watchdog (the default) the historical
// ErrDeadlock panic is unchanged.
func (e *Env) SetWatchdog(w *Watchdog) { e.wd = w }

type event struct {
	at   Time
	seq  uint64
	proc *Proc
}

// before orders events by time, then by scheduling order, so events at
// the same time fire FIFO.
func (a *event) before(b *event) bool {
	if a.at != b.at {
		return a.at < b.at
	}
	return a.seq < b.seq
}

// eventQueue is a binary min-heap of events held by value.
type eventQueue []event

func (e *Env) schedule(p *Proc, at Time) {
	e.seq++
	ev := event{at: at, seq: e.seq, proc: p}
	q := append(e.queue, ev)
	i := len(q) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if !ev.before(&q[parent]) {
			break
		}
		q[i] = q[parent]
		i = parent
	}
	q[i] = ev
	e.queue = q
}

// pop removes and returns the earliest event. The queue must be non-empty.
func (e *Env) pop() event {
	q := e.queue
	top := q[0]
	n := len(q) - 1
	last := q[n]
	q[n] = event{}
	q = q[:n]
	if n > 0 {
		i := 0
		for {
			child := 2*i + 1
			if child >= n {
				break
			}
			if r := child + 1; r < n && q[r].before(&q[child]) {
				child = r
			}
			if !q[child].before(&last) {
				break
			}
			q[i] = q[child]
			i = child
		}
		q[i] = last
	}
	e.queue = q
	return top
}

// Proc is a simulated process. All Proc methods must be called from within
// the process's own body function.
type Proc struct {
	env     *Env
	name    string
	id      int
	resume  func() (struct{}, bool) // runs the body until it yields or ends
	suspend func(struct{}) bool     // yields to Run; false once stopped
	stop    func()                  // unwinds a suspended body
	done    bool
}

// Name returns the process name given at spawn.
func (p *Proc) Name() string { return p.name }

// ID returns the process's spawn-order index, used as the thread id on
// trace timelines.
func (p *Proc) ID() int { return p.id }

// Env returns the environment the process runs in.
func (p *Proc) Env() *Env { return p.env }

// Now returns the current virtual time.
func (p *Proc) Now() Time { return p.env.now }

// Delay advances the process by d cycles of virtual time.
func (p *Proc) Delay(d uint64) {
	if t := p.env.tracer; t != nil {
		t.Span(p.name, p.id, uint64(p.env.now), d)
	}
	p.env.schedule(p, p.env.now+Time(d))
	p.yield()
}

// park blocks the process with no pending event; something else (a Release,
// a Broadcast) must schedule it again.
func (p *Proc) park() {
	p.env.blocked++
	p.yield()
}

// unpark schedules a parked process to resume at the current time.
func (p *Proc) unpark() {
	p.env.blocked--
	p.env.schedule(p, p.env.now)
}

// Run executes events until the queue is empty. It returns the final
// virtual time. Run panics if processes remain blocked with no pending
// events (a simulation deadlock), since that always indicates a bug in the
// modeled system; the panic value is an error wrapping ErrDeadlock. A
// panic in a process body unwinds out of Run in the caller's goroutine
// with the original panic value, so the caller's recover handlers see it.
// Whenever Run leaves with processes still blocked — a panic, or a
// deadlock handed to the watchdog — it stops them first, so no suspended
// process outlives the call.
func (e *Env) Run() Time {
	defer func() {
		if r := recover(); r != nil {
			e.stopLive()
			panic(r)
		}
	}()
	for len(e.queue) > 0 {
		ev := e.pop()
		if ev.at < e.now {
			panic("sim: event in the past")
		}
		e.now = ev.at
		ev.proc.resume()
	}
	if e.blocked > 0 {
		if e.wd == nil {
			panic(fmt.Errorf("%w: %d process(es) blocked with an empty event queue", ErrDeadlock, e.blocked))
		}
		e.stopLive()
		// A deadlock freezes the virtual clock: feed the watchdog the
		// stuck clock until it trips and drives recovery.
		for !e.wd.Fired() {
			e.wd.Observe(uint64(e.now))
		}
	}
	return e.now
}

// Resource is a counting semaphore with a FIFO wait queue. A Resource with
// capacity 1 is a mutex.
type Resource struct {
	env      *Env
	capacity int
	inUse    int
	waiters  []*waiter
	// WaitedCycles accumulates, across all acquirers, the virtual time
	// spent queued for this resource. Experiments use it to attribute
	// contention (e.g. libmpk busy-waiting).
	WaitedCycles uint64
}

type waiter struct {
	proc *Proc
	n    int
	from Time
}

// NewResource creates a resource with the given capacity.
func (e *Env) NewResource(capacity int) *Resource {
	if capacity <= 0 {
		panic("sim: resource capacity must be positive")
	}
	return &Resource{env: e, capacity: capacity}
}

// Available returns the number of free units.
func (r *Resource) Available() int { return r.capacity - r.inUse }

// Acquire takes n units, blocking in FIFO order until they are free. It
// returns the cycles this caller spent waiting.
func (r *Resource) Acquire(p *Proc, n int) uint64 {
	if n > r.capacity {
		panic(fmt.Sprintf("sim: acquire %d exceeds capacity %d", n, r.capacity))
	}
	if len(r.waiters) == 0 && r.inUse+n <= r.capacity {
		r.inUse += n
		return 0
	}
	w := &waiter{proc: p, n: n, from: r.env.now}
	r.waiters = append(r.waiters, w)
	p.park()
	waited := uint64(r.env.now - w.from)
	r.WaitedCycles += waited
	return waited
}

// TryAcquire takes n units if immediately available, without blocking.
func (r *Resource) TryAcquire(n int) bool {
	if len(r.waiters) == 0 && r.inUse+n <= r.capacity {
		r.inUse += n
		return true
	}
	return false
}

// Release returns n units and wakes as many FIFO waiters as now fit.
func (r *Resource) Release(n int) {
	r.inUse -= n
	if r.inUse < 0 {
		panic("sim: release of units never acquired")
	}
	for len(r.waiters) > 0 {
		w := r.waiters[0]
		if r.inUse+w.n > r.capacity {
			break
		}
		r.waiters = r.waiters[1:]
		r.inUse += w.n
		w.proc.unpark()
	}
}

// Signal is a broadcast wakeup point: processes Wait on it, and a
// Broadcast wakes all current waiters at once.
type Signal struct {
	env     *Env
	waiters []*Proc
}

// NewSignal creates a signal.
func (e *Env) NewSignal() *Signal {
	return &Signal{env: e}
}

// Wait blocks the process until the next Broadcast. It returns the cycles
// spent waiting.
func (s *Signal) Wait(p *Proc) uint64 {
	from := s.env.now
	s.waiters = append(s.waiters, p)
	p.park()
	return uint64(s.env.now - from)
}

// Broadcast wakes every process currently waiting on the signal.
func (s *Signal) Broadcast() {
	ws := s.waiters
	s.waiters = nil
	for _, p := range ws {
		p.unpark()
	}
}

// NumWaiting returns the number of processes waiting on the signal.
func (s *Signal) NumWaiting() int { return len(s.waiters) }
