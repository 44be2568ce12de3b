package pagetable

// This file implements checkpoint capture and restore for Table
// (vdom-snap/v1). The snapshot must reproduce the table *exactly* — not
// just its present translations but the radix skeleton (empty page
// tables left behind by Unmap still add walk levels, which the hardware
// charges cycles for), the per-PMD disabled marks, the write counters,
// and the mutation generation — so a restored System's cycle accounting
// is bit-identical to an uninterrupted run.

// PageState is one present PTE and its address in a TableState.
type PageState struct {
	Addr uint64
	PTE  PTE
}

// TableState is the serializable image of a Table.
type TableState struct {
	// Pages holds every present PTE in ascending address order.
	Pages []PageState
	// PTs lists the coordinates (virtual address >> PMDShift) of every
	// materialized leaf page table, including empty ones: they decide
	// how many levels a walk of an unmapped address visits.
	PTs []uint64
	// DisabledPMDs lists the coordinates (virtual address >> PMDShift)
	// of PMD entries disabled by the §5.5 eviction fast path.
	DisabledPMDs []uint64

	PTEWrites  uint64
	PMDWrites  uint64
	RetiredPTE uint64
	RetiredPMD uint64
	Gen        uint64
}

// State captures the table's full image for a checkpoint.
func (t *Table) State() TableState {
	st := TableState{
		PTEWrites:  t.PTEWrites,
		PMDWrites:  t.PMDWrites,
		RetiredPTE: t.retiredPTE,
		RetiredPMD: t.retiredPMD,
		Gen:        t.gen,
	}
	for i3, pi := range t.pgd {
		if pi == 0 {
			continue
		}
		pud := &t.puds[pi-1]
		for i2, mi := range pud.pmds {
			if mi == 0 {
				continue
			}
			pmd := &t.pmds[mi-1]
			for i1, ti := range pmd.pts {
				coord := uint64(i3)<<18 | uint64(i2)<<9 | uint64(i1)
				if pmd.isDisabled(i1) {
					st.DisabledPMDs = append(st.DisabledPMDs, coord)
				}
				if ti == 0 {
					continue
				}
				st.PTs = append(st.PTs, coord)
				pt := &t.pts[ti-1]
				for i0 := range pt.ptes {
					if pt.ptes[i0]&pteP == 0 {
						continue
					}
					a := coord<<PMDShift | uint64(i0)<<PageShift
					st.Pages = append(st.Pages, PageState{Addr: a, PTE: pt.ptes[i0].unpack()})
				}
			}
		}
	}
	return st
}

// LoadState overwrites the table in place with a previously captured
// image. The radix is rebuilt directly — not through Map — so the write
// counters and generation land exactly on the checkpointed values. Each
// node array is allocated once, at the size the image calls for.
func (t *Table) LoadState(st TableState) {
	*t = Table{
		puds: make([]pudNode, 0, distinct(st.PTs, st.DisabledPMDs, 18)),
		pmds: make([]pmdNode, 0, distinct(st.PTs, st.DisabledPMDs, 9)),
		pts:  make([]ptNode, 0, len(st.PTs)),
	}
	for _, coord := range st.PTs {
		t.materialize(coord)
	}
	for _, coord := range st.DisabledPMDs {
		pmd := t.materializePMD(coord)
		pmd.setDisabled(int(coord&0x1ff), true)
	}
	for _, pg := range st.Pages {
		pt := t.ptOf(VAddr(pg.Addr))
		i0 := int(pg.Addr >> 12 & 0x1ff)
		pt.ptes[i0] = packPTE(pg.PTE)
		pt.present++
		t.present++
	}
	t.PTEWrites = st.PTEWrites
	t.PMDWrites = st.PMDWrites
	t.retiredPTE = st.RetiredPTE
	t.retiredPMD = st.RetiredPMD
	t.gen = st.Gen
}

// distinct counts the distinct values of coord>>shift over the union of
// two ascending coordinate lists, as State emits them: shift 9 counts
// the pmd nodes the coordinates live in, shift 18 the pud nodes. On
// unsorted input the count only grows, so it stays a safe capacity.
func distinct(a, b []uint64, shift uint) int {
	n := 0
	var last uint64
	for len(a) > 0 || len(b) > 0 {
		var v uint64
		if len(b) == 0 || len(a) > 0 && a[0] <= b[0] {
			v, a = a[0]>>shift, a[1:]
		} else {
			v, b = b[0]>>shift, b[1:]
		}
		if n == 0 || v != last {
			n++
			last = v
		}
	}
	return n
}

// materializePMD ensures the pud/pmd path for a pt coordinate exists and
// returns the pmd node, without touching any counter.
func (t *Table) materializePMD(coord uint64) *pmdNode {
	i3 := int(coord >> 18 & 0x1ff)
	i2 := int(coord >> 9 & 0x1ff)
	pi := t.pgd[i3]
	if pi == 0 {
		t.puds = appendNode(t.puds)
		pi = int32(len(t.puds))
		t.pgd[i3] = pi
	}
	mi := t.puds[pi-1].pmds[i2]
	if mi == 0 {
		t.pmds = appendNode(t.pmds)
		mi = int32(len(t.pmds))
		t.puds[pi-1].pmds[i2] = mi
	}
	return &t.pmds[mi-1]
}

// materialize ensures the full path to the leaf page table at coord
// exists, without touching any counter.
func (t *Table) materialize(coord uint64) {
	pmd := t.materializePMD(coord)
	i1 := int(coord & 0x1ff)
	if pmd.pts[i1] == 0 {
		// Appending to pts cannot move pmds, so pmd stays valid.
		t.pts = appendNode(t.pts)
		pmd.pts[i1] = int32(len(t.pts))
	}
}
