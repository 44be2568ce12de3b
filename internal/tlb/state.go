package tlb

import "fmt"

// Checkpoint capture and restore (vdom-snap/v1). A TLB snapshot keeps
// the exact slot layout — valid holes, reference bits, and the clock
// hand(s) — so that victim selection, and therefore every future
// hit/miss, is bit-identical after restore. The image stops at the last
// non-zero slot: every slot past it is the zero (invalid, unreferenced)
// slot on both sides of the checkpoint, so its size tracks the entries
// the TLB has held, not its configured capacity.

// SlotState is one TLB slot, valid or not.
type SlotState struct {
	Entry      Entry
	Valid      bool
	Referenced bool
}

// CacheState is the serializable image of a Cache. For the fully
// associative TLB, Slots holds the slots in order up to the last
// non-zero one (at most capacity; every slot past the image is zero),
// Hand is the clock hand, and Hands is empty. For the set-associative
// organization the slots are flattened set-major (set*ways+way) and
// trimmed the same way, and Hands holds the per-set clock hands. Images
// padded with trailing zero slots, as older snapshots are, load the same.
type CacheState struct {
	Slots []SlotState
	Hand  int
	Hands []int
	Stats Stats
}

func (s slot) state() SlotState {
	return SlotState{Entry: s.entry, Valid: s.valid, Referenced: s.referenced}
}

func (s SlotState) slot() slot {
	return slot{entry: s.Entry, valid: s.Valid, referenced: s.Referenced}
}

// usedLen returns the length of the shortest prefix of slots that holds
// every non-zero slot: the image length both organizations capture.
func usedLen(slots []slot) int {
	n := len(slots)
	for n > 0 && slots[n-1] == (slot{}) {
		n--
	}
	return n
}

// resident counts the image's valid entries, which size the rebuilt
// index.
func (st CacheState) resident() int {
	n := 0
	for _, s := range st.Slots {
		if s.Valid {
			n++
		}
	}
	return n
}

// State captures the TLB's image.
func (t *TLB) State() CacheState {
	st := CacheState{
		Slots: make([]SlotState, usedLen(t.slots)),
		Hand:  t.hand,
		Stats: t.stats,
	}
	for i := range st.Slots {
		st.Slots[i] = t.slots[i].state()
	}
	return st
}

// LoadState overwrites the TLB in place with a captured image. The image
// may hold up to capacity slots; the slot array is rebuilt at the image's
// length and grows lazily from there, exactly as victim grows a fresh
// one. LoadState rejects an image that does not fit this TLB without
// changing anything. The lookup memo restores to the unset state, which
// is behaviorally transparent (its hit path has the exact side effects
// of an indexed hit).
func (t *TLB) LoadState(st CacheState) error {
	if len(st.Slots) > t.capacity {
		return fmt.Errorf("tlb: image has %d slots, capacity is %d", len(st.Slots), t.capacity)
	}
	if st.Hand < 0 || st.Hand >= t.capacity {
		return fmt.Errorf("tlb: clock hand %d outside capacity %d", st.Hand, t.capacity)
	}
	if len(st.Hands) != 0 {
		return fmt.Errorf("tlb: image has %d set hands, fully associative TLB has none", len(st.Hands))
	}
	resident := st.resident()
	t.slots = make([]slot, len(st.Slots))
	t.index = nil // Insert builds it when the image holds no entry
	if resident > 0 {
		t.index = make(map[key]int, resident)
	}
	clear(t.counts)
	for i, s := range st.Slots {
		t.slots[i] = s.slot()
		if s.Valid {
			t.index[key{s.Entry.ASID, s.Entry.VPN}] = i
			t.bump(s.Entry.ASID, 1)
		}
	}
	t.hand = st.Hand
	t.stats = st.Stats
	t.lastIdx = -1
	return nil
}

// State captures the set-associative TLB's image, slots flattened
// set-major.
func (t *SetAssoc) State() CacheState {
	n := 0
	for s := range t.sets {
		if u := usedLen(t.sets[s]); u > 0 {
			n = s*t.ways + u
		}
	}
	st := CacheState{
		Slots: make([]SlotState, n),
		Hands: append([]int(nil), t.hands...),
		Stats: t.stats,
	}
	for i := range st.Slots {
		st.Slots[i] = t.sets[i/t.ways][i%t.ways].state()
	}
	return st
}

// LoadState overwrites the set-associative TLB in place with a captured
// image. The image may hold up to sets × ways slots, and every slot past
// it is zeroed; it must carry one clock hand per set. LoadState rejects
// an image that does not fit this TLB without changing anything.
func (t *SetAssoc) LoadState(st CacheState) error {
	if len(st.Slots) > t.Capacity() {
		return fmt.Errorf("tlb: image has %d slots, capacity is %d", len(st.Slots), t.Capacity())
	}
	if len(st.Hands) != len(t.sets) {
		return fmt.Errorf("tlb: image has %d set hands, TLB has %d sets", len(st.Hands), len(t.sets))
	}
	for s, h := range st.Hands {
		if h < 0 || h >= t.ways {
			return fmt.Errorf("tlb: set %d clock hand %d outside %d ways", s, h, t.ways)
		}
	}
	t.index = make(map[key]int, st.resident())
	for s := range t.sets {
		clear(t.sets[s])
	}
	for i, s := range st.Slots {
		t.sets[i/t.ways][i%t.ways] = s.slot()
		if s.Valid {
			t.index[key{s.Entry.ASID, s.Entry.VPN}] = i
		}
	}
	copy(t.hands, st.Hands)
	t.stats = st.Stats
	return nil
}
