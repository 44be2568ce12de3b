package bench

import (
	"fmt"
	"io"

	"vdom/internal/backend"
	"vdom/internal/cycles"
	"vdom/internal/workload"
)

// matrixSystem maps a registered backend name to the Table 4 pattern
// runner that drives it. A backend without a pattern runner renders as
// "NA" cells (none today).
func matrixSystem(name string) (workload.PatternSystem, bool) {
	switch name {
	case "vdom":
		return workload.PatternVDomSecure, true
	case "libmpk":
		return workload.PatternLibmpk, true
	case "epk":
		return workload.PatternEPK, true
	case "dpti":
		return workload.PatternDPTI, true
	default:
		return 0, false
	}
}

// matrixArches is the architecture axis of the comparison matrix: every
// cost table the simulator carries, including the projected ones.
var matrixArches = []cycles.Arch{cycles.X86, cycles.ARM, cycles.Power, cycles.RISCV}

// matrixVdoms is the fixed domain count of the matrix cells — high
// enough that vdom-style systems juggle virtualization and table-bound
// systems feel churn, low enough that every backend can represent it.
const matrixVdoms = 8

// Matrix compares every registered kernel backend across every cost
// architecture: average cycles per domain activation in the
// switch-triggering pattern at matrixVdoms domains. Rows come from the
// backend registry, so a newly registered kernel shows up with no bench
// change; columns are every cost table including the projected POWER
// and sealable-PKS RISC-V parameters.
func Matrix(w io.Writer, o Options) {
	names := backend.Names()
	cols := []string{"kernel \\ arch"}
	for _, a := range matrixArches {
		cols = append(cols, a.String())
	}
	t := &Table{
		Title: fmt.Sprintf(
			"Kernel x arch matrix: average cycles per activation, trig pattern, %d domains",
			matrixVdoms),
		Columns: cols,
	}

	na := len(matrixArches)
	results := o.mapGrid(matrixGrid(o))
	for ri, name := range names {
		row := []string{name}
		for ci := range matrixArches {
			c := results[ri*na+ci]
			o.collect(c)
			row = append(row, c.text)
		}
		t.Row(row...)
	}
	o.Render(w, t)
}
