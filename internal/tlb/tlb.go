// Package tlb models a per-core, ASID-tagged translation lookaside buffer.
//
// ASID tagging is what lets VDom switch page global directories without
// flushing: entries of the previous address space stay resident under their
// own tag and become live again when the core switches back. The model is a
// capacity-bounded cache with clock (second-chance) replacement — enough to
// reproduce the miss behaviour that separates VDom from VM-based and
// shootdown-based approaches, while staying deterministic.
package tlb

import "vdom/internal/pagetable"

// ASID is an address-space identifier (PCID on x86).
type ASID uint16

// Entry is one cached translation.
type Entry struct {
	ASID  ASID
	VPN   uint64
	Frame pagetable.Frame
	// Pdom is the memory-domain tag cached with the translation; the
	// permission-register check happens on every access, even on hits.
	Pdom     pagetable.Pdom
	Writable bool
}

type slot struct {
	entry      Entry
	valid      bool
	referenced bool
}

type key struct {
	asid ASID
	vpn  uint64
}

// Stats counts TLB events since the last ResetStats.
type Stats struct {
	Hits         uint64
	Misses       uint64
	Inserts      uint64
	PageFlushes  uint64
	ASIDFlushes  uint64
	FullFlushes  uint64
	RangeFlushes uint64
	Invalidated  uint64 // entries removed by any flush
}

// Add accumulates another core's stats into s, for machine-wide totals.
func (s *Stats) Add(o Stats) {
	s.Hits += o.Hits
	s.Misses += o.Misses
	s.Inserts += o.Inserts
	s.PageFlushes += o.PageFlushes
	s.ASIDFlushes += o.ASIDFlushes
	s.FullFlushes += o.FullFlushes
	s.RangeFlushes += o.RangeFlushes
	s.Invalidated += o.Invalidated
}

// Emit publishes the stats as named metrics counters under the tlb/
// prefix (see OBSERVABILITY.md for the catalogue).
func (s Stats) Emit(emit func(name string, v uint64)) {
	emit("tlb/hits", s.Hits)
	emit("tlb/misses", s.Misses)
	emit("tlb/inserts", s.Inserts)
	emit("tlb/flush-page", s.PageFlushes)
	emit("tlb/flush-asid", s.ASIDFlushes)
	emit("tlb/flush-full", s.FullFlushes)
	emit("tlb/flush-range", s.RangeFlushes)
	emit("tlb/invalidated", s.Invalidated)
}

// TLB is one core's translation cache.
type TLB struct {
	// slots and index materialize lazily: the index map on the first
	// insert, and the slot array only as far as the clock hand has
	// reached (see victim). A machine's worth of cold TLBs then costs
	// nothing to construct, and a lightly used one stays small — which
	// the short-lived systems replay and the perf harness build in bulk
	// rely on. Lookups and flushes on the nil index behave as on an
	// empty one.
	slots    []slot
	capacity int
	index    map[key]int
	hand     int
	stats    Stats

	// lastIdx memoizes the slot of the most recent hit (-1 when unset), a
	// host-side fast path that skips the map hash when the same page is hit
	// repeatedly. The memo self-validates against the slot's live content —
	// flushes invalidate the slot and evictions overwrite it, so a stale
	// memo simply fails the content check — and its hit path performs the
	// exact side effects of an indexed hit (reference bit, Hits counter),
	// keeping clock replacement and stats bit-identical.
	lastIdx int

	// counts tracks resident entries per ASID (dense, grown on demand).
	// It lets FlushASID return immediately for the common dormant-ASID
	// case instead of scanning; it changes no observable behavior.
	counts []uint32
}

// DefaultCapacity approximates a unified second-level TLB.
const DefaultCapacity = 1536

// New returns a TLB with the given entry capacity.
func New(capacity int) *TLB {
	if capacity <= 0 {
		panic("tlb: capacity must be positive")
	}
	return &TLB{
		capacity: capacity,
		lastIdx:  -1,
	}
}

// Capacity returns the number of entry slots.
func (t *TLB) Capacity() int { return t.capacity }

// Len returns the number of valid entries.
func (t *TLB) Len() int { return len(t.index) }

// Stats returns a copy of the event counters.
func (t *TLB) Stats() Stats { return t.stats }

// ResetStats zeroes the event counters.
func (t *TLB) ResetStats() { t.stats = Stats{} }

// Lookup searches for (asid, vpn). A hit refreshes the entry's reference
// bit.
func (t *TLB) Lookup(asid ASID, vpn uint64) (Entry, bool) {
	if i := t.lastIdx; i >= 0 {
		if s := &t.slots[i]; s.valid && s.entry.ASID == asid && s.entry.VPN == vpn {
			s.referenced = true
			t.stats.Hits++
			return s.entry, true
		}
	}
	if i, ok := t.index[key{asid, vpn}]; ok {
		t.slots[i].referenced = true
		t.stats.Hits++
		t.lastIdx = i
		return t.slots[i].entry, true
	}
	t.stats.Misses++
	return Entry{}, false
}

// Insert caches a translation, evicting by clock replacement if full. An
// existing entry for the same (asid, vpn) is overwritten in place.
func (t *TLB) Insert(e Entry) {
	t.stats.Inserts++
	if t.index == nil {
		// A modest initial size: most short-lived systems (replay, the
		// perf harness) touch a few dozen pages per TLB, and a map
		// pre-sized for full capacity would dominate their boot cost.
		// TLBs that do fill pay a handful of amortized rehashes.
		t.index = make(map[key]int, 64)
	}
	k := key{e.ASID, e.VPN}
	if i, ok := t.index[k]; ok {
		t.slots[i].entry = e
		t.slots[i].referenced = true
		return
	}
	i := t.victim()
	if t.slots[i].valid {
		delete(t.index, key{t.slots[i].entry.ASID, t.slots[i].entry.VPN})
		t.bump(t.slots[i].entry.ASID, -1)
	}
	t.slots[i] = slot{entry: e, valid: true, referenced: true}
	t.index[k] = i
	t.bump(e.ASID, 1)
}

// bump adjusts the resident-entry count of an ASID by ±1.
func (t *TLB) bump(a ASID, d int) {
	for int(a) >= len(t.counts) {
		t.counts = append(t.counts, 0)
	}
	t.counts[a] = uint32(int(t.counts[a]) + d)
}

// victim finds a free slot or evicts via the clock algorithm. The hand
// walks the full configured capacity; a position beyond the materialized
// slot array is by definition an invalid (never-used) slot, so the array
// grows only as far as the clock has actually reached — bit-identical to
// walking a fully allocated array of zero slots, at a fraction of the
// boot cost for the mostly-empty TLBs replay and the perf harness build
// in bulk.
func (t *TLB) victim() int {
	for {
		i := t.hand
		t.hand++
		if t.hand == t.capacity {
			t.hand = 0
		}
		if i >= len(t.slots) {
			for len(t.slots) <= i {
				t.slots = append(t.slots, slot{})
			}
			return i
		}
		s := &t.slots[i]
		if !s.valid {
			return i
		}
		if !s.referenced {
			return i
		}
		s.referenced = false
	}
}

// FlushPage invalidates one page of one address space (invlpg/TLBIMVA).
func (t *TLB) FlushPage(asid ASID, vpn uint64) {
	t.stats.PageFlushes++
	if i, ok := t.index[key{asid, vpn}]; ok {
		t.slots[i] = slot{}
		delete(t.index, key{asid, vpn})
		t.bump(asid, -1)
		t.stats.Invalidated++
	}
}

// FlushRange invalidates [startVPN, startVPN+pages) of one address space,
// modelling the range-flush instructions §5.5 leans on.
func (t *TLB) FlushRange(asid ASID, startVPN, pages uint64) {
	t.stats.RangeFlushes++
	if int(asid) >= len(t.counts) || t.counts[asid] == 0 {
		return
	}
	for vpn := startVPN; vpn < startVPN+pages; vpn++ {
		if i, ok := t.index[key{asid, vpn}]; ok {
			t.slots[i] = slot{}
			delete(t.index, key{asid, vpn})
			t.bump(asid, -1)
			t.stats.Invalidated++
		}
	}
}

// FlushASID invalidates every entry of one address space. It scans the
// slot array rather than the index map: the set of entries removed (and
// so every counter) is identical, and a linear pass over the
// pointer-free slots is far cheaper than a map iteration.
func (t *TLB) FlushASID(asid ASID) {
	t.stats.ASIDFlushes++
	if int(asid) >= len(t.counts) || t.counts[asid] == 0 {
		return // nothing resident under this ASID
	}
	for i := range t.slots {
		s := &t.slots[i]
		if s.valid && s.entry.ASID == asid {
			delete(t.index, key{asid, s.entry.VPN})
			t.slots[i] = slot{}
			t.stats.Invalidated++
		}
	}
	t.counts[asid] = 0
}

// FlushAll invalidates the whole TLB.
func (t *TLB) FlushAll() {
	t.stats.FullFlushes++
	t.stats.Invalidated += uint64(len(t.index))
	for i := range t.slots {
		t.slots[i] = slot{}
	}
	t.index = nil // rebuilt by the next Insert
	t.hand = 0
	clear(t.counts)
}

// Each calls fn for every valid entry, in slot order. It is an
// introspection helper for consistency auditors and tests, not a hardware
// operation.
func (t *TLB) Each(fn func(Entry)) {
	for i := range t.slots {
		if t.slots[i].valid {
			fn(t.slots[i].entry)
		}
	}
}

// CountASID returns the number of resident entries tagged with asid.
// It is an introspection helper for tests and experiments, not a hardware
// operation.
func (t *TLB) CountASID(asid ASID) int {
	n := 0
	for k := range t.index {
		if k.asid == asid {
			n++
		}
	}
	return n
}

// Cache is the operation set common to the TLB organizations (fully
// associative with global clock, or set-associative). Hardware cores and
// kernel flush paths operate through it.
type Cache interface {
	Lookup(asid ASID, vpn uint64) (Entry, bool)
	Insert(e Entry)
	FlushPage(asid ASID, vpn uint64)
	FlushRange(asid ASID, startVPN, pages uint64)
	FlushASID(asid ASID)
	FlushAll()
	Len() int
	Capacity() int
	Stats() Stats
	ResetStats()
	CountASID(asid ASID) int
	Each(fn func(Entry))
	// State and LoadState capture and restore the cache image for the
	// checkpoint subsystem (see internal/snapshot). Interposers that
	// embed a Cache inherit them, so snapshots see through wrappers to
	// the underlying hardware state. LoadState returns an error, and
	// leaves the cache untouched, when the image does not fit its
	// geometry.
	State() CacheState
	LoadState(st CacheState) error
}

var (
	_ Cache = (*TLB)(nil)
	_ Cache = (*SetAssoc)(nil)
)
