package chaos

import (
	"fmt"

	"vdom/internal/core"
	"vdom/internal/hw"
	"vdom/internal/kernel"
	"vdom/internal/pagetable"
	"vdom/internal/replay"
	"vdom/internal/tlb"
)

// Violation is one detected incoherence between layers.
type Violation struct {
	// Core is the core whose TLB holds the offending state, or -1 for
	// manager-internal violations.
	Core int
	// Desc describes the violation.
	Desc string
}

// String renders the violation.
func (v Violation) String() string {
	if v.Core < 0 {
		return v.Desc
	}
	return fmt.Sprintf("core %d: %s", v.Core, v.Desc)
}

// Audit performs the full cross-layer consistency check: every manager's
// private metadata (domain maps, VDRs, register images, page tags) via
// core.Manager.AuditInvariants, then every core's TLB against the address
// space each cached ASID belongs to. A healthy system — even one under
// active fault injection, thanks to the degradation paths — reports no
// violations.
//
// TLB entries under a retired ASID ("zombies") are legal: the kernel
// defers ASID reuse until a generation rollover has flushed every TLB, so
// they can never be hit again. Entries under a live ASID must agree with
// that address space's page table: present translation, matching frame,
// matching domain tag, and no write permission beyond the PTE's. A cached
// read-only entry for a now-writable page is benign staleness (the next
// write faults and upgrades) and is not flagged.
func Audit(m *hw.Machine, k *kernel.Kernel, mgrs ...*core.Manager) []Violation {
	return AuditOwners(m, k, nil, mgrs...)
}

// AuditSystem audits every layer a booted system carries: the VDom
// manager's metadata and address spaces when it has one, each task's
// base ASID as the shadow table's, and, for DPTI, each materialized
// domain table under its ASID.
func AuditSystem(sys *replay.System) []Violation {
	var mgrs []*core.Manager
	if sys.Manager != nil {
		mgrs = append(mgrs, sys.Manager)
	}
	owners := make(map[tlb.ASID]*pagetable.Table)
	if sys.Proc != nil {
		for _, t := range sys.Proc.Tasks() {
			owners[t.BaseASID()] = sys.Proc.AS().Shadow()
		}
	}
	if sys.DPTI != nil {
		sys.DPTI.OwnedASIDs(func(a tlb.ASID, tb *pagetable.Table) { owners[a] = tb })
	}
	return AuditOwners(sys.Machine, sys.Kernel, owners, mgrs...)
}

// AuditOwners is Audit with extra ASID ownership: owners maps live ASIDs
// to their page tables for protection systems the auditor has no manager
// handle for (AuditSystem registers DPTI's per-domain tables this way).
func AuditOwners(m *hw.Machine, k *kernel.Kernel, owners map[tlb.ASID]*pagetable.Table, mgrs ...*core.Manager) []Violation {
	var out []Violation
	for _, mgr := range mgrs {
		for _, desc := range mgr.AuditInvariants() {
			out = append(out, Violation{Core: -1, Desc: desc})
		}
	}

	// Map every live ASID to the page table it tags translations of.
	byASID := make(map[tlb.ASID]*pagetable.Table)
	for _, mgr := range mgrs {
		proc := mgr.Process()
		for _, t := range proc.Tasks() {
			byASID[t.BaseASID()] = proc.AS().Shadow()
		}
		for _, vds := range mgr.VDSes() {
			byASID[vds.ASID()] = vds.Table()
		}
	}
	for a, t := range owners {
		byASID[a] = t
	}

	for id := 0; id < m.NumCores(); id++ {
		coreID := id
		m.Core(id).TLB().Each(func(e tlb.Entry) {
			table, known := byASID[e.ASID]
			if !known {
				if k.ASIDLive(e.ASID) {
					out = append(out, Violation{Core: coreID, Desc: fmt.Sprintf(
						"entry (asid %d, vpn %#x) under a live ASID no address space owns",
						e.ASID, e.VPN)})
				}
				return // zombie ASID: unreachable until a rollover flush
			}
			addr := pagetable.VAddr(e.VPN * pagetable.PageSize)
			wr := table.Walk(addr)
			switch {
			case wr.PMDDisabled:
				out = append(out, Violation{Core: coreID, Desc: fmt.Sprintf(
					"entry (asid %d, vpn %#x) survives under a PMD-disabled region", e.ASID, e.VPN)})
			case !wr.Present:
				out = append(out, Violation{Core: coreID, Desc: fmt.Sprintf(
					"stale entry (asid %d, vpn %#x): translation no longer present", e.ASID, e.VPN)})
			case wr.PTE.Frame != e.Frame:
				out = append(out, Violation{Core: coreID, Desc: fmt.Sprintf(
					"entry (asid %d, vpn %#x) maps frame %d, PTE says %d",
					e.ASID, e.VPN, e.Frame, wr.PTE.Frame)})
			case wr.PTE.Pdom != e.Pdom:
				out = append(out, Violation{Core: coreID, Desc: fmt.Sprintf(
					"entry (asid %d, vpn %#x) tagged pdom %d, PTE says %d — domain revocation leak",
					e.ASID, e.VPN, e.Pdom, wr.PTE.Pdom)})
			case e.Writable && !wr.PTE.Writable:
				out = append(out, Violation{Core: coreID, Desc: fmt.Sprintf(
					"entry (asid %d, vpn %#x) writable, PTE is read-only — write-protect leak",
					e.ASID, e.VPN)})
			}
		})
	}
	return out
}
