package staticcheck_test

import (
	"errors"
	"fmt"
	"testing"

	"repro/internal/apps"
	"repro/internal/asm"
	"repro/internal/core"
	"repro/internal/gen"
	"repro/internal/isa"
	"repro/internal/packet"
	"repro/internal/route"
	"repro/internal/staticcheck"
	"repro/internal/vm"
)

// factsChecker is a Tracer that holds an interpreter run to the facts
// the verifier exported for its program: every data access at an
// instruction with a proven region lands in that region, inside the
// proven address interval and naturally aligned; no executed
// instruction is unreachable; and every branch with a proven direction
// goes that way. The first violation is kept in err.
type factsChecker struct {
	facts  *staticcheck.Facts
	text   []isa.Instruction
	base   uint32
	layout vm.Layout
	br     int // index of the conditional branch that executed last, or -1
	err    error
}

func newFactsChecker(prog *asm.Program, layout vm.Layout, facts *staticcheck.Facts) *factsChecker {
	return &factsChecker{facts: facts, text: prog.Text, base: prog.TextBase, layout: layout, br: -1}
}

func (c *factsChecker) fail(format string, args ...any) {
	if c.err == nil {
		c.err = fmt.Errorf(format, args...)
	}
}

func (c *factsChecker) index(pc uint32) int { return int((pc - c.base) / isa.WordSize) }

func (c *factsChecker) Instr(pc uint32, in isa.Instruction) {
	c.resolve(pc)
	i := c.index(pc)
	if c.facts.Unreachable[i] {
		c.fail("instruction %d (%v at %#x) executed, but the facts prove it unreachable", i, in.Op, pc)
	}
	if in.Op.IsBranch() {
		c.br = i
	}
}

func (c *factsChecker) Mem(pc, addr uint32, size uint8, write bool, region vm.Region) {
	i := c.index(pc)
	want := c.facts.Mem[i]
	if want == vm.RegionNone {
		return
	}
	last := addr + uint32(size) - 1
	if region != want || c.layout.Classify(last) != want ||
		addr < c.facts.MemLo[i] || addr > c.facts.MemHi[i] || addr%uint32(size) != 0 {
		c.fail("instruction %d (%v at %#x) accessed %d bytes at %#x (%v), but the facts prove %v in [%#x, %#x], aligned",
			i, c.text[i].Op, pc, size, addr, region, want, c.facts.MemLo[i], c.facts.MemHi[i])
	}
}

// resolve checks the pending branch, if any, against next, the PC
// execution went to after it.
func (c *factsChecker) resolve(next uint32) {
	i := c.br
	if i < 0 {
		return
	}
	c.br = -1
	pc := c.base + uint32(i)*isa.WordSize
	target := pc + isa.WordSize + uint32(c.text[i].Imm)*isa.WordSize
	if target == pc+isa.WordSize {
		return // both directions lead to the same place
	}
	taken := next == target
	switch c.facts.Branch[i] {
	case staticcheck.BranchAlways:
		if !taken {
			c.fail("branch %d at %#x fell through, but the facts prove it always taken", i, pc)
		}
	case staticcheck.BranchNever:
		if taken {
			c.fail("branch %d at %#x was taken, but the facts prove it never taken", i, pc)
		}
	}
}

// end closes a run that stopped with err. A fault raised without an
// Instr event (step limit, bad fetch) carries the PC a pending branch
// went to; a memory fault must not hit an access the facts prove safe.
func (c *factsChecker) end(err error) {
	var f *vm.Fault
	if errors.As(err, &f) {
		switch f.Kind {
		case vm.FaultStepLimit, vm.FaultBadFetch:
			c.resolve(f.PC)
		case vm.FaultUnaligned, vm.FaultUnmapped, vm.FaultTextWrite:
			if i := c.index(f.PC); c.facts.Mem[i] != vm.RegionNone {
				c.fail("instruction %d at %#x faulted with %v, but the facts prove the access safe", i, f.PC, f.Kind)
			}
		}
	}
	c.br = -1
}

// checkFactsOnSource runs src once from the framework ABI entry state on
// the interpreter (a0 at the packet buffer, a1 = 64, sp at the stack
// top, ra at the magic return address, pc at the verifier's default
// entry) and checks the run against the verifier's facts, which claim
// to hold on every such run, however it ends. It reports whether src
// assembled to a tame program, the only kind the facts say anything
// about.
func checkFactsOnSource(t *testing.T, src string) bool {
	t.Helper()
	prog, err := asm.Assemble(src, asm.Options{})
	if err != nil || len(prog.Text) == 0 || len(prog.Text) > 4096 {
		return false
	}
	layout := core.LayoutFor(prog, 1<<20)
	_, facts := staticcheck.VerifyWithFacts(prog, staticcheck.Options{Layout: layout})
	if !facts.Tame {
		return false
	}
	mem := vm.NewMemory()
	mem.WriteBytes(prog.DataBase, prog.Data)
	cpu := vm.New(prog.Text, prog.TextBase, mem)
	cpu.Layout = layout
	cpu.SetReg(isa.A0, layout.PacketBase)
	cpu.SetReg(isa.A1, 64)
	cpu.SetReg(isa.SP, layout.StackEnd)
	cpu.SetReg(isa.RA, vm.ReturnAddress)
	cpu.PC = entryAddr(prog)
	chk := newFactsChecker(prog, layout, facts)
	cpu.Tracer = chk
	_, _, err = cpu.Run(100_000)
	chk.end(err)
	if chk.err != nil {
		t.Errorf("%q: %v", src, chk.err)
	}
	return true
}

// TestFactsSoundOnApps is the direct soundness test of the facts
// pipeline: each bundled application runs a generated trace on the
// interpreter with a factsChecker attached, and so does every
// assembler fuzz seed the analysis can follow. A fact that some run
// contradicts fails the test.
func TestFactsSoundOnApps(t *testing.T) {
	prof, err := gen.ProfileByName("MRA")
	if err != nil {
		t.Fatal(err)
	}
	pkts := gen.Generate(prof, 200)
	var dsts []uint32
	for _, p := range pkts {
		if h, err := packet.ParseIPv4(p.Data); err == nil {
			dsts = append(dsts, h.Dst)
		}
	}
	list := apps.All(route.TableFromTraffic(dsts, 1024, 16, 1), 64, 1)
	list = append(list, apps.PayloadScan([4]byte{0xde, 0xad, 0xbe, 0xef}), apps.Frag(576))
	for _, app := range list {
		b, err := core.New(app, core.Options{Engine: core.EngineInterpreter})
		if err != nil {
			t.Fatalf("%s: %v", app.Name, err)
		}
		prog := b.Program()
		layout := core.LayoutFor(prog, 0)
		_, facts := staticcheck.VerifyWithFacts(prog, staticcheck.Options{Layout: layout, Entries: []string{app.Entry}})
		if !facts.Tame {
			t.Fatalf("%s: the facts pipeline cannot follow the program", app.Name)
		}
		chk := newFactsChecker(prog, layout, facts)
		b.AddTracer(chk)
		for i, p := range pkts {
			_, err := b.ProcessPacketAt(i, p)
			chk.end(err)
			if chk.err != nil {
				t.Fatalf("%s: packet %d: %v", app.Name, i, chk.err)
			}
		}
	}
	tame := 0
	for _, src := range asm.FuzzSeeds {
		if checkFactsOnSource(t, src) {
			tame++
		}
	}
	if tame == 0 {
		t.Error("no fuzz seed is tame: the corpus checks nothing")
	}
}

// FuzzFactsSound checks the facts of arbitrary assembly source against
// one interpreter run from the framework ABI entry state. CI runs this
// as a short -fuzz smoke.
func FuzzFactsSound(f *testing.F) {
	for _, src := range asm.FuzzSeeds {
		f.Add(src)
	}
	f.Fuzz(func(t *testing.T, src string) {
		checkFactsOnSource(t, src)
	})
}
