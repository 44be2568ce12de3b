package hw

import (
	"fmt"

	"vdom/internal/pagetable"
	"vdom/internal/tlb"
)

// Checkpoint capture and restore for the hardware layer (vdom-snap/v1).
// Page tables are owned by the memory-management layer and serialized
// there; a core snapshot refers to its loaded table by an opaque id the
// caller maps in both directions.

// WalkSnap is the per-core page-walk cache image. The cache is a
// host-side memoization, but its hit/miss counters are published as
// metrics, so an exact restore must carry it.
type WalkSnap struct {
	TableID int
	Gen     uint64
	VPN     uint64
	Valid   bool
	Res     pagetable.WalkResult
	Hits    uint64
	Misses  uint64
}

// CoreSnap is the serializable image of one Core.
type CoreSnap struct {
	PermRaw uint64
	ASID    tlb.ASID
	// TableID identifies the loaded page table via the caller's mapping;
	// the caller reserves a value (conventionally -1) for "none loaded".
	TableID int
	Walk    WalkSnap
	// TLB is the core's TLB image, which runs only up to the last
	// non-empty slot (see tlb.CacheState).
	TLB tlb.CacheState
}

// Snap captures the core's image. tableID maps a live *pagetable.Table
// (or nil) to the caller's stable table id.
func (c *Core) Snap(tableID func(*pagetable.Table) int) CoreSnap {
	return CoreSnap{
		PermRaw: c.perm.Raw(),
		ASID:    c.asid,
		TableID: tableID(c.table),
		Walk: WalkSnap{
			TableID: tableID(c.walkTable),
			Gen:     c.walkGen,
			VPN:     c.walkVPN,
			Valid:   c.walkValid,
			Res:     c.walkRes,
			Hits:    c.walkHits,
			Misses:  c.walkMisses,
		},
		TLB: c.tlb.State(),
	}
}

// LoadSnap restores the core from a captured image. table is the inverse
// of the Snap tableID mapping (it must return nil for the "none" id). It
// returns the TLB's error, and changes nothing, when the image's TLB
// does not fit this core's TLB geometry.
func (c *Core) LoadSnap(s CoreSnap, table func(id int) *pagetable.Table) error {
	if err := c.tlb.LoadState(s.TLB); err != nil {
		return err
	}
	c.perm.SetRaw(s.PermRaw)
	c.asid = s.ASID
	c.table = table(s.TableID)
	c.walkTable = table(s.Walk.TableID)
	c.walkGen = s.Walk.Gen
	c.walkVPN = s.Walk.VPN
	c.walkValid = s.Walk.Valid
	c.walkRes = s.Walk.Res
	c.walkHits = s.Walk.Hits
	c.walkMisses = s.Walk.Misses
	return nil
}

// CrashVolatile models the architectural effect of a core crash on the
// chip: the volatile micro-architectural state — TLB contents, the
// permission register, the walk cache — is lost, while memory-resident
// state (page tables) survives. The recovery path restores a checkpoint
// on top, so the wiped state never leaks into post-recovery execution.
func (c *Core) CrashVolatile() {
	c.tlb.FlushAll()
	c.perm.SetRaw(DenyAll())
	c.walkValid = false
	c.walkTable = nil
	c.table = nil
	c.asid = 0
}

// FrameWatermark returns the frame allocator's high-water mark (the next
// frame AllocFrames would hand out).
func (m *Machine) FrameWatermark() pagetable.Frame { return m.nextFrame }

// SetFrameWatermark restores the frame allocator's high-water mark from
// a checkpoint. It refuses to move the watermark backwards past frames
// already handed out on a fresh machine.
func (m *Machine) SetFrameWatermark(f pagetable.Frame) {
	if f < m.nextFrame {
		panic(fmt.Sprintf("hw: frame watermark %d would orphan %d allocated frames", f, m.nextFrame))
	}
	m.nextFrame = f
}
