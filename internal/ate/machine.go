// Package ate models automated test equipment (ATE) for DRAM chips: the
// ALPG processor units, their irregularly structured registers, and the
// translation-time register re-allocation problem of Section II-B.
//
// An ATE executes test-pattern programs that emit a bit vector to the
// pins of the chip under test every clock. Registers are irregular —
// only certain register pairs can be combined by arithmetic
// instructions — and an ATE with W interleaved ALPGs executes bundles of
// W instructions as one major cycle, within which a register may be
// written at most once and must not be read ahead of a write. There is
// no data memory, so register allocation must succeed without spills:
// the derived PBQP costs are all zero or infinity.
//
// Real product-level test programs are proprietary; this package
// generates synthetic programs with the statistics the paper reports
// (28–241 vertices, m = 13, ~40 % of vertices with liberty ≤ 4) that
// are guaranteed allocable by construction, exactly like a real program
// that is known to run on its source ATE.
package ate

// Machine describes one ATE model's register architecture.
type Machine struct {
	// Name identifies the machine in reports.
	Name string
	// Registers is the number of physical registers (the paper's ATE
	// evaluation targets m = 13).
	Registers int
	// Ways is the interleaving factor: Ways consecutive instructions
	// form one major cycle.
	Ways int
	// pairable[a][b] reports whether registers a and b may be the two
	// operands of a pairing (arithmetic) instruction.
	pairable [][]bool
}

// Pairable reports whether physical registers a and b can be combined
// by a pairing instruction.
func (m *Machine) Pairable(a, b int) bool { return m.pairable[a][b] }

// DefaultMachine returns the 13-register, 8-way reference machine used
// throughout the experiments. Its pairing structure is irregular in the
// way ATE manuals describe: registers are grouped into two banks that
// pair internally, a carry register that pairs only with even registers,
// and a few cross-bank exceptions.
func DefaultMachine() *Machine {
	const regs = 13
	m := &Machine{Name: "ALPG-13", Registers: regs, Ways: 8}
	m.pairable = make([][]bool, regs)
	for a := 0; a < regs; a++ {
		m.pairable[a] = make([]bool, regs)
	}
	set := func(a, b int) {
		m.pairable[a][b] = true
		m.pairable[b][a] = true
	}
	// bank A: r0-r5 pair among themselves
	for a := 0; a < 6; a++ {
		for b := a + 1; b < 6; b++ {
			set(a, b)
		}
	}
	// bank B: r6-r11 pair among themselves
	for a := 6; a < 12; a++ {
		for b := a + 1; b < 12; b++ {
			set(a, b)
		}
	}
	// r12 (carry) pairs with even registers only
	for a := 0; a < 12; a += 2 {
		set(12, a)
	}
	// cross-bank exceptions: rX pairs with rX+6 for X in 0..3
	for a := 0; a < 4; a++ {
		set(a, a+6)
	}
	return m
}
