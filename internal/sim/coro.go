//go:build go1.23

package sim

import (
	"fmt"
	"iter"
	"slices"
)

// procStopped is the panic value that unwinds a process body stopped while
// suspended; the wrapper GoAt puts around the body recovers it.
type procStopped struct{}

// Go spawns a new simulated process that starts at the current virtual
// time. The body runs as a coroutine, only while the environment has
// handed it control.
func (e *Env) Go(name string, body func(p *Proc)) *Proc {
	return e.GoAt(e.now, name, body)
}

// GoAt spawns a process whose body starts at virtual time `at` (which must
// not be in the past).
func (e *Env) GoAt(at Time, name string, body func(p *Proc)) *Proc {
	if at < e.now {
		panic(fmt.Sprintf("sim: GoAt(%d) in the past (now %d)", at, e.now))
	}
	p := &Proc{env: e, name: name, id: e.spawned}
	p.resume, p.stop = iter.Pull(func(yield func(struct{}) bool) {
		p.suspend = yield
		defer func() {
			if r := recover(); r != nil {
				if _, ok := r.(procStopped); !ok {
					panic(r)
				}
			}
		}()
		body(p)
		p.done = true
		e.procs--
	})
	if len(e.live) > 2*e.procs {
		e.live = slices.DeleteFunc(e.live, func(q *Proc) bool { return q.done })
	}
	e.live = append(e.live, p)
	e.procs++
	e.spawned++
	e.schedule(p, at)
	return p
}

// yield returns control to the environment and blocks until the next event
// for this process fires. A process stopped while suspended here unwinds
// its body instead of resuming.
func (p *Proc) yield() {
	if !p.suspend(struct{}{}) {
		panic(procStopped{})
	}
}

// stopLive unwinds every process that has not finished, in spawn order,
// releasing the goroutine that backs its coroutine.
func (e *Env) stopLive() {
	for _, p := range e.live {
		if !p.done {
			p.stop()
		}
	}
	e.live = nil
}
