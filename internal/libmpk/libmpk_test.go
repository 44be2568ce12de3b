package libmpk

import (
	"errors"
	"testing"

	"vdom/internal/cycles"
	"vdom/internal/hw"
	"vdom/internal/kernel"
	"vdom/internal/pagetable"
	"vdom/internal/sim"
)

const pg = pagetable.PageSize

type fixture struct {
	k    *kernel.Kernel
	proc *kernel.Process
	m    *Manager
	env  *sim.Env
	next pagetable.VAddr
}

func newFixture(t *testing.T, cores int, env *sim.Env) *fixture {
	t.Helper()
	mach := hw.NewMachine(hw.Config{Arch: cycles.X86, NumCores: cores, TLBCapacity: 4096})
	k := kernel.New(kernel.Config{Machine: mach, VDomEnabled: false})
	proc := k.NewProcess()
	return &fixture{k: k, proc: proc, m: Attach(proc, env), env: env, next: 0x200000000}
}

func (f *fixture) newKeyRegion(t *testing.T, task *kernel.Task, pages int) (Vkey, pagetable.VAddr) {
	t.Helper()
	base := f.next
	f.next += pagetable.VAddr(pages*pg) + 8*pagetable.PMDSize
	if _, err := task.Mmap(base, uint64(pages*pg), true); err != nil {
		t.Fatal(err)
	}
	v, _ := f.m.PkeyAlloc()
	if _, err := f.m.PkeyMprotect(nil, task, base, uint64(pages*pg), v); err != nil {
		t.Fatal(err)
	}
	return v, base
}

func TestProtectGrantRevoke(t *testing.T) {
	f := newFixture(t, 2, nil)
	task := f.proc.NewTask(0)
	v, base := f.newKeyRegion(t, task, 1)

	if _, err := task.Access(base, false); !errors.Is(err, kernel.ErrSigsegv) {
		t.Fatalf("access without grant = %v, want SIGSEGV", err)
	}
	if _, err := f.m.PkeySet(nil, task, v, hw.PermRead); err != nil {
		t.Fatal(err)
	}
	if _, err := task.Access(base, false); err != nil {
		t.Fatalf("read failed: %v", err)
	}
	if _, err := task.Access(base, true); !errors.Is(err, kernel.ErrSigsegv) {
		t.Fatalf("write with WD = %v, want SIGSEGV", err)
	}
	if _, err := f.m.PkeySet(nil, task, v, hw.PermReadWrite); err != nil {
		t.Fatal(err)
	}
	if _, err := task.Access(base, true); err != nil {
		t.Fatalf("write failed: %v", err)
	}
	if _, err := f.m.PkeySet(nil, task, v, hw.PermNone); err != nil {
		t.Fatal(err)
	}
	if _, err := task.Access(base, false); !errors.Is(err, kernel.ErrSigsegv) {
		t.Fatalf("read after revoke = %v, want SIGSEGV", err)
	}
}

func TestFifteenKeysNoEviction(t *testing.T) {
	f := newFixture(t, 1, nil)
	task := f.proc.NewTask(0)
	for i := 0; i < UsableKeys; i++ {
		v, b := f.newKeyRegion(t, task, 1)
		if _, err := f.m.PkeySet(nil, task, v, hw.PermReadWrite); err != nil {
			t.Fatal(err)
		}
		if _, err := task.Access(b, true); err != nil {
			t.Fatal(err)
		}
	}
	if f.m.Stats.Evictions != 0 {
		t.Errorf("evictions = %d within hardware capacity", f.m.Stats.Evictions)
	}
}

func TestOverflowEvictsLRUReleasedKey(t *testing.T) {
	f := newFixture(t, 1, nil)
	task := f.proc.NewTask(0)
	var keys []Vkey
	var bases []pagetable.VAddr
	for i := 0; i < UsableKeys; i++ {
		v, b := f.newKeyRegion(t, task, 1)
		keys = append(keys, v)
		bases = append(bases, b)
		if _, err := f.m.PkeySet(nil, task, v, hw.PermReadWrite); err != nil {
			t.Fatal(err)
		}
	}
	// Release all; activate one more key: the LRU (first) is evicted.
	for _, v := range keys {
		if _, err := f.m.PkeySet(nil, task, v, hw.PermNone); err != nil {
			t.Fatal(err)
		}
	}
	v, b := f.newKeyRegion(t, task, 1)
	if _, err := f.m.PkeySet(nil, task, v, hw.PermReadWrite); err != nil {
		t.Fatal(err)
	}
	if _, err := task.Access(b, true); err != nil {
		t.Fatal(err)
	}
	if f.m.Stats.Evictions != 1 {
		t.Fatalf("evictions = %d, want 1", f.m.Stats.Evictions)
	}
	if f.m.Mapped(keys[0]) {
		t.Error("LRU key still mapped after eviction")
	}
	// The evicted key's pages are disabled even if a stale register
	// image would allow them.
	if _, err := task.Access(bases[0], false); !errors.Is(err, kernel.ErrSigsegv) {
		t.Errorf("evicted-page access = %v, want SIGSEGV", err)
	}
	// Reactivating the evicted key brings it back (evicting another).
	if _, err := f.m.PkeySet(nil, task, keys[0], hw.PermReadWrite); err != nil {
		t.Fatal(err)
	}
	if _, err := task.Access(bases[0], false); err != nil {
		t.Fatalf("reactivated key unreachable: %v", err)
	}
}

func TestEvictionCostMatchesTable4(t *testing.T) {
	// Table 4: libmpk seq with 2 MiB (512-page) vkeys beyond capacity
	// costs ≈30,600 cycles per activation.
	f := newFixture(t, 1, nil)
	task := f.proc.NewTask(0)
	pmPages := pagetable.PMDSize / pg
	var keys []Vkey
	for i := 0; i < UsableKeys+2; i++ {
		v, _ := f.newKeyRegion(t, task, pmPages)
		keys = append(keys, v)
		if _, err := f.m.PkeySet(nil, task, v, hw.PermReadWrite); err != nil {
			t.Fatal(err)
		}
		if _, err := f.m.PkeySet(nil, task, v, hw.PermNone); err != nil {
			t.Fatal(err)
		}
	}
	// Steady state: every activation evicts a 512-page key and restores
	// another 512-page key.
	c, err := f.m.PkeySet(nil, task, keys[0], hw.PermReadWrite)
	if err != nil {
		t.Fatal(err)
	}
	got := float64(c)
	if got < 30609*0.75 || got > 30609*1.25 {
		t.Errorf("eviction pkey_set = %.0f cycles, want ≈30609 (Table 4)", got)
	}
}

func TestMappedPkeySetCostMatchesTable4(t *testing.T) {
	// Table 4: libmpk with ≤15 vkeys costs ≈102 cycles per pkey_set.
	f := newFixture(t, 1, nil)
	task := f.proc.NewTask(0)
	v, _ := f.newKeyRegion(t, task, 1)
	if _, err := f.m.PkeySet(nil, task, v, hw.PermReadWrite); err != nil {
		t.Fatal(err)
	}
	c, err := f.m.PkeySet(nil, task, v, hw.PermRead)
	if err != nil {
		t.Fatal(err)
	}
	if c < 90 || c > 115 {
		t.Errorf("mapped pkey_set = %d cycles, want ≈102", c)
	}
}

func TestDirectModeErrorsWhenAllKeysHeld(t *testing.T) {
	f := newFixture(t, 1, nil)
	task := f.proc.NewTask(0)
	for i := 0; i < UsableKeys; i++ {
		v, _ := f.newKeyRegion(t, task, 1)
		if _, err := f.m.PkeySet(nil, task, v, hw.PermReadWrite); err != nil {
			t.Fatal(err)
		}
	}
	v, _ := f.newKeyRegion(t, task, 1)
	if _, err := f.m.PkeySet(nil, task, v, hw.PermReadWrite); !errors.Is(err, ErrNoFreeKey) {
		t.Errorf("err = %v, want ErrNoFreeKey", err)
	}
}

func TestBusyWaitInSimulation(t *testing.T) {
	env := sim.NewEnv()
	f := newFixture(t, 2, env)
	holder := f.proc.NewTask(0)
	waiter := f.proc.NewTask(1)

	var holderKeys []Vkey
	for i := 0; i < UsableKeys; i++ {
		v, _ := f.newKeyRegion(t, holder, 1)
		holderKeys = append(holderKeys, v)
		if _, err := f.m.PkeySet(nil, holder, v, hw.PermReadWrite); err != nil {
			t.Fatal(err)
		}
	}
	newKey, _ := f.newKeyRegion(t, waiter, 1)

	env.Go("holder", func(p *sim.Proc) {
		p.Delay(10_000)
		// Release one key; the waiter can proceed.
		if _, err := f.m.PkeySet(p, holder, holderKeys[0], hw.PermNone); err != nil {
			t.Error(err)
		}
	})
	var waited sim.Time
	env.Go("waiter", func(p *sim.Proc) {
		if _, err := f.m.PkeySet(p, waiter, newKey, hw.PermReadWrite); err != nil {
			t.Error(err)
		}
		waited = p.Now()
	})
	env.Run()
	if waited < 10_000 {
		t.Errorf("waiter proceeded at %d, before any key was released", waited)
	}
	if f.m.Stats.BusyWaits == 0 || f.m.Stats.BusyWaitCycles < 9_000 {
		t.Errorf("busy-wait stats = %+v", f.m.Stats)
	}
}

func TestShootdownHitsAllProcessCores(t *testing.T) {
	f := newFixture(t, 4, nil)
	t0 := f.proc.NewTask(0)
	t3 := f.proc.NewTask(3)
	// Warm t3's TLB on an unprotected page.
	if _, err := t3.Mmap(0x9000000, pg, true); err != nil {
		t.Fatal(err)
	}
	if _, err := t3.Access(0x9000000, true); err != nil {
		t.Fatal(err)
	}
	// Drive t0 through an eviction.
	var keys []Vkey
	for i := 0; i < UsableKeys; i++ {
		v, _ := f.newKeyRegion(t, t0, 1)
		keys = append(keys, v)
		if _, err := f.m.PkeySet(nil, t0, v, hw.PermReadWrite); err != nil {
			t.Fatal(err)
		}
		if _, err := f.m.PkeySet(nil, t0, v, hw.PermNone); err != nil {
			t.Fatal(err)
		}
	}
	v, _ := f.newKeyRegion(t, t0, 1)
	if _, err := f.m.PkeySet(nil, t0, v, hw.PermReadWrite); err != nil {
		t.Fatal(err)
	}
	if f.m.Stats.Shootdowns == 0 {
		t.Fatal("no shootdowns recorded")
	}
	// t3's translations were invalidated by the process-wide flush.
	res := t3.Core().Access(0x9000000, false)
	if res.TLBHit {
		t.Error("remote core's TLB survived the process-wide shootdown")
	}
}

func TestPkeyFree(t *testing.T) {
	f := newFixture(t, 1, nil)
	task := f.proc.NewTask(0)
	v, b := f.newKeyRegion(t, task, 1)
	if _, err := f.m.PkeySet(nil, task, v, hw.PermReadWrite); err != nil {
		t.Fatal(err)
	}
	if _, err := task.Access(b, true); err != nil {
		t.Fatal(err)
	}
	if _, err := f.m.PkeyFree(task, v); err != nil {
		t.Fatal(err)
	}
	if _, err := f.m.PkeySet(nil, task, v, hw.PermRead); !errors.Is(err, ErrUnknownKey) {
		t.Errorf("pkey_set after free = %v, want ErrUnknownKey", err)
	}
	if _, err := task.Access(b, false); !errors.Is(err, kernel.ErrSigsegv) {
		t.Errorf("access after free = %v, want SIGSEGV", err)
	}
}

func TestPerThreadPermissionViews(t *testing.T) {
	f := newFixture(t, 2, nil)
	t1, t2 := f.proc.NewTask(0), f.proc.NewTask(1)
	v, b := f.newKeyRegion(t, t1, 1)
	if _, err := f.m.PkeySet(nil, t1, v, hw.PermReadWrite); err != nil {
		t.Fatal(err)
	}
	if _, err := t1.Access(b, true); err != nil {
		t.Fatal(err)
	}
	if _, err := t2.Access(b, false); !errors.Is(err, kernel.ErrSigsegv) {
		t.Errorf("t2 unpermitted access = %v, want SIGSEGV", err)
	}
	if _, err := f.m.PkeySet(nil, t2, v, hw.PermRead); err != nil {
		t.Fatal(err)
	}
	if _, err := t2.Access(b, false); err != nil {
		t.Errorf("t2 read failed: %v", err)
	}
	if _, err := t2.Access(b, true); !errors.Is(err, kernel.ErrSigsegv) {
		t.Errorf("t2 write with WD = %v, want SIGSEGV", err)
	}
}

// TestDirectModeAllHeldDoesNotAllocate pins the spin-retry path: with
// every key held, a direct PkeySet returns the preformatted ErrNoFreeKey
// without allocating, and the error text is unchanged.
func TestDirectModeAllHeldDoesNotAllocate(t *testing.T) {
	f := newFixture(t, 1, nil)
	task := f.proc.NewTask(0)
	for i := 0; i < UsableKeys; i++ {
		v, _ := f.newKeyRegion(t, task, 1)
		if _, err := f.m.PkeySet(nil, task, v, hw.PermReadWrite); err != nil {
			t.Fatal(err)
		}
	}
	v, _ := f.newKeyRegion(t, task, 1)
	var err error
	allocs := testing.AllocsPerRun(100, func() {
		_, err = f.m.PkeySet(nil, task, v, hw.PermReadWrite)
	})
	if !errors.Is(err, ErrNoFreeKey) {
		t.Fatalf("err = %v, want ErrNoFreeKey", err)
	}
	if want := "libmpk: all hardware keys in use: 14 keys, all held"; err.Error() != want {
		t.Errorf("err = %q, want %q", err, want)
	}
	if allocs != 0 {
		t.Errorf("all-held PkeySet allocates %v times per call, want 0", allocs)
	}
}
