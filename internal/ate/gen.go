package ate

import (
	"math/rand"

	"pbqprl/internal/pbqp"
)

// GenConfig parameterizes the synthetic test-pattern generator.
type GenConfig struct {
	// Name labels the program.
	Name string
	// NumVRegs is the number of virtual registers (= PBQP vertices).
	NumVRegs int
	// PairRatio is the fraction of defining instructions that are
	// pairing adds.
	PairRatio float64
	// HardRatio is the fraction of vregs whose register class is
	// restricted to at most 4 registers (the paper reports ~40 % of
	// ATE vertices with liberty ≤ 4).
	HardRatio float64
	// MaxLive bounds simultaneous live vregs (register pressure);
	// values near the register count make dense interference. Zero
	// means Registers - 3.
	MaxLive int
	// Seed drives the generator.
	Seed int64
}

// Generate builds a synthetic straight-line ATE program for mach,
// together with the hidden register assignment it was built around.
// The hidden assignment satisfies every constraint the program implies,
// so the derived PBQP graph always has a zero-cost solution — the
// synthetic analogue of a test program known to run on its source ATE.
func Generate(mach *Machine, cfg GenConfig) (*Program, pbqp.Selection) {
	rng := rand.New(rand.NewSource(cfg.Seed))
	maxLive := cfg.MaxLive
	if maxLive == 0 {
		maxLive = mach.Registers - 3
	}
	if maxLive > mach.Registers {
		maxLive = mach.Registers
	}
	p := &Program{Name: cfg.Name, Machine: mach, NumVRegs: cfg.NumVRegs}
	hidden := make(pbqp.Selection, cfg.NumVRegs)

	type liveVReg struct {
		vreg, reg int
	}
	var live []liveVReg
	defined := 0
	slot := 0
	var writtenCycle, readCycle map[int]bool // physical regs this cycle
	resetCycle := func() {
		writtenCycle = make(map[int]bool)
		readCycle = make(map[int]bool)
	}
	resetCycle()

	liveRegs := func() map[int]bool {
		s := make(map[int]bool, len(live))
		for _, lv := range live {
			s[lv.reg] = true
		}
		return s
	}
	emit := func(in Instr) {
		for _, u := range in.Uses {
			readCycle[hidden[u]] = true
		}
		if d := in.DefReg(); d >= 0 {
			writtenCycle[hidden[d]] = true
		}
		p.Instrs = append(p.Instrs, in)
		slot++
		if slot%mach.Ways == 0 {
			resetCycle()
		}
	}
	// freeReg picks a hidden register for a new def that violates no
	// constraint the PBQP will encode; -1 if none exists right now.
	freeReg := func() int {
		inUse := liveRegs()
		var candidates []int
		for r := 0; r < mach.Registers; r++ {
			if !inUse[r] && !writtenCycle[r] && !readCycle[r] {
				candidates = append(candidates, r)
			}
		}
		if len(candidates) == 0 {
			return -1
		}
		return candidates[rng.Intn(len(candidates))]
	}
	kill := func(prob float64) {
		var kept []liveVReg
		for _, lv := range live {
			if rng.Float64() < prob && len(live) > 1 {
				continue
			}
			kept = append(kept, lv)
		}
		live = kept
	}
	pairableLive := func() (int, int, bool) {
		perm := rng.Perm(len(live))
		for _, i := range perm {
			for _, j := range perm {
				if i != j && mach.Pairable(live[i].reg, live[j].reg) {
					return live[i].vreg, live[j].vreg, true
				}
			}
		}
		return 0, 0, false
	}

	for defined < cfg.NumVRegs {
		wantDef := len(live) < maxLive
		r := -1
		if wantDef {
			r = freeReg()
		}
		switch {
		case wantDef && r >= 0:
			v := defined
			hidden[v] = r
			in := Instr{Op: OpSet, Def: v}
			if len(live) > 0 && rng.Float64() < cfg.PairRatio {
				if a, b, ok := pairableLive(); ok && a != b {
					in = Instr{Op: OpAdd, Def: v, Uses: []int{a, b}}
				}
			} else if len(live) > 0 && rng.Float64() < 0.4 {
				src := live[rng.Intn(len(live))].vreg
				in = Instr{Op: OpMove, Def: v, Uses: []int{src}}
			}
			emit(in)
			live = append(live, liveVReg{vreg: v, reg: r})
			defined++
			kill(0.10)
		case len(live) > 0:
			// relieve pressure: read some registers, kill a few
			n := 1 + rng.Intn(min(3, len(live)))
			uses := make([]int, 0, n)
			for _, i := range rng.Perm(len(live))[:n] {
				uses = append(uses, live[i].vreg)
			}
			emit(Instr{Op: OpEmit, Uses: uses})
			kill(0.5)
		default:
			emit(Instr{Op: OpNop})
		}
	}
	// tail: read whatever is still live so last uses are realistic,
	// draining the live set in chunks
	for len(live) > 0 {
		n := 1 + rng.Intn(min(3, len(live)))
		uses := make([]int, 0, n)
		for _, lv := range live[:n] {
			uses = append(uses, lv.vreg)
		}
		emit(Instr{Op: OpEmit, Uses: uses})
		live = live[n:]
	}

	// Register classes: restrict allowed sets around the hidden regs.
	// Hard (low-liberty) vregs form a contiguous kernel phase of the
	// program — the pressure-heavy inner pattern where the restricted
	// special-purpose registers live. Real test patterns have this
	// shape, and it is what keeps the liberty solver's sorted
	// enumeration order temporally local (conflicts between hard vregs
	// are discovered chronologically rather than arbitrarily late).
	p.Allowed = make([][]int, cfg.NumVRegs)
	kernelLen := int(cfg.HardRatio * float64(cfg.NumVRegs))
	kernelStart := 0
	if kernelLen < cfg.NumVRegs {
		kernelStart = rng.Intn(cfg.NumVRegs - kernelLen)
	}
	easyLo := 5 // easy vregs keep liberty in [5, registers] (clamped)
	if easyLo > mach.Registers {
		easyLo = mach.Registers
	}
	hardHi := 4
	if hardHi > mach.Registers {
		hardHi = mach.Registers
	}
	for v := 0; v < cfg.NumVRegs; v++ {
		liberty := easyLo + rng.Intn(mach.Registers-easyLo+1)
		if v >= kernelStart && v < kernelStart+kernelLen {
			liberty = 1 + rng.Intn(hardHi)
		}
		allowed := []int{hidden[v]}
		for _, r := range rng.Perm(mach.Registers) {
			if len(allowed) >= liberty {
				break
			}
			if r != hidden[v] {
				allowed = append(allowed, r)
			}
		}
		p.Allowed[v] = allowed
	}
	return p, hidden
}
