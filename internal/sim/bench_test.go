package sim

import "testing"

// BenchmarkProcessHandoff measures the simulator's per-event cost: one
// Delay = one push and pop on the value-typed event heap plus one
// coroutine switch out of the process and one back in.
func BenchmarkProcessHandoff(b *testing.B) {
	env := NewEnv()
	env.Go("worker", func(p *Proc) {
		for i := 0; i < b.N; i++ {
			p.Delay(1)
		}
	})
	b.ResetTimer()
	env.Run()
}

func BenchmarkResourceAcquireRelease(b *testing.B) {
	env := NewEnv()
	r := env.NewResource(1)
	env.Go("worker", func(p *Proc) {
		for i := 0; i < b.N; i++ {
			r.Acquire(p, 1)
			r.Release(1)
		}
	})
	b.ResetTimer()
	env.Run()
}

func BenchmarkRandUint64(b *testing.B) {
	r := NewRand(1)
	for i := 0; i < b.N; i++ {
		r.Uint64()
	}
}
