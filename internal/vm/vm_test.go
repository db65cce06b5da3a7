package vm

import (
	"errors"
	"fmt"
	"strings"
	"testing"
	"testing/quick"

	"repro/internal/asm"
	"repro/internal/isa"
)

// buildCPU assembles src and returns a CPU with a standard test layout:
// packet buffer at 0x20000000 (+64K), data at the assembler default
// (+1M), stack at 0x7FFF0000 (+64K).
func buildCPU(t *testing.T, src string) (*CPU, *asm.Program) {
	t.Helper()
	p, err := asm.Assemble(src, asm.Options{})
	if err != nil {
		t.Fatalf("assemble: %v", err)
	}
	mem := NewMemory(Layout{
		TextBase: p.TextBase, TextEnd: p.TextEnd(),
		PacketBase: 0x20000000, PacketEnd: 0x20010000,
		DataBase: p.DataBase, DataEnd: p.DataBase + 1<<20,
		StackBase: 0x7FFF0000, StackEnd: 0x80000000,
	})
	mem.WriteBytes(p.DataBase, p.Data)
	c := New(p.Text, p.TextBase, mem)
	c.PC = p.TextBase
	c.Regs[isa.SP] = mem.Layout().StackEnd
	c.Regs[isa.RA] = ReturnAddress
	return c, p
}

// run executes until a normal stop, failing the test on faults.
func run(t *testing.T, c *CPU) (uint64, StopReason) {
	t.Helper()
	steps, reason, err := c.Run(1 << 20)
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	return steps, reason
}

func TestALUOps(t *testing.T) {
	cases := []struct {
		name string
		src  string
		reg  isa.Reg
		want uint32
	}{
		{"add", "li a0, 5\nli a1, 7\nadd a2, a0, a1\nhalt", isa.A2, 12},
		{"sub", "li a0, 5\nli a1, 7\nsub a2, a0, a1\nhalt", isa.A2, 0xFFFFFFFE},
		{"and", "li a0, 0xF0F0\nli a1, 0xFF00\nand a2, a0, a1\nhalt", isa.A2, 0xF000},
		{"or", "li a0, 0xF0F0\nli a1, 0x0F0F\nor a2, a0, a1\nhalt", isa.A2, 0xFFFF},
		{"xor", "li a0, 0xFF\nli a1, 0x0F\nxor a2, a0, a1\nhalt", isa.A2, 0xF0},
		{"sll", "li a0, 1\nli a1, 4\nsll a2, a0, a1\nhalt", isa.A2, 16},
		{"srl", "li a0, 0x80000000\nli a1, 4\nsrl a2, a0, a1\nhalt", isa.A2, 0x08000000},
		{"sra", "li a0, 0x80000000\nli a1, 4\nsra a2, a0, a1\nhalt", isa.A2, 0xF8000000},
		{"slt true", "li a0, -1\nli a1, 1\nslt a2, a0, a1\nhalt", isa.A2, 1},
		{"slt false", "li a0, 1\nli a1, -1\nslt a2, a0, a1\nhalt", isa.A2, 0},
		{"sltu", "li a0, -1\nli a1, 1\nsltu a2, a0, a1\nhalt", isa.A2, 0}, // 0xFFFFFFFF not < 1
		{"mul", "li a0, 7\nli a1, 6\nmul a2, a0, a1\nhalt", isa.A2, 42},
		{"mul wrap", "li a0, 0x10000\nli a1, 0x10000\nmul a2, a0, a1\nhalt", isa.A2, 0},
		{"addi", "addi a2, zero, -7\nhalt", isa.A2, 0xFFFFFFF9},
		{"andi", "li a0, 0x1234\nandi a2, a0, 0xFF\nhalt", isa.A2, 0x34},
		{"ori", "ori a2, zero, 0xABC\nhalt", isa.A2, 0xABC},
		{"xori", "li a0, 0xFF\nxori a2, a0, 0xF0\nhalt", isa.A2, 0x0F},
		{"slli", "li a0, 3\nslli a2, a0, 30\nhalt", isa.A2, 0xC0000000},
		{"srli", "li a0, -1\nsrli a2, a0, 28\nhalt", isa.A2, 0xF},
		{"srai", "li a0, -16\nsrai a2, a0, 2\nhalt", isa.A2, 0xFFFFFFFC},
		{"slti", "li a0, -5\nslti a2, a0, -4\nhalt", isa.A2, 1},
		{"sltiu", "li a0, 3\nsltiu a2, a0, 4\nhalt", isa.A2, 1},
		{"lui", "lui a2, 0xABCDE\nhalt", isa.A2, 0xABCDE000},
		{"seqz", "li a0, 0\nseqz a2, a0\nhalt", isa.A2, 1},
		{"snez", "li a0, 9\nsnez a2, a0\nhalt", isa.A2, 1},
		{"neg", "li a0, 5\nneg a2, a0\nhalt", isa.A2, 0xFFFFFFFB},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			cpu, _ := buildCPU(t, c.src)
			run(t, cpu)
			if got := cpu.Reg(c.reg); got != c.want {
				t.Errorf("%s = %#x, want %#x", c.reg, got, c.want)
			}
		})
	}
}

func TestZeroRegisterImmutable(t *testing.T) {
	cpu, _ := buildCPU(t, `
		addi zero, zero, 42
		li   a0, 99
		mv   zero, a0
		add  a1, zero, zero
		halt
	`)
	run(t, cpu)
	if cpu.Reg(isa.Zero) != 0 {
		t.Errorf("zero register = %d", cpu.Reg(isa.Zero))
	}
	if cpu.Reg(isa.A1) != 0 {
		t.Errorf("a1 = %d, want 0", cpu.Reg(isa.A1))
	}
}

func TestLoadsAndStores(t *testing.T) {
	cpu, p := buildCPU(t, `
		.data
	buf:	.space 16
	vals:	.word 0xDEADBEEF
		.text
	entry:
		la   s0, buf
		li   t0, 0x11223344
		sw   t0, 0(s0)
		lw   a0, 0(s0)      ; word round trip
		lh   a1, 0(s0)      ; 0x3344 sign-extended (positive)
		lhu  a2, 2(s0)      ; 0x1122
		lb   a3, 3(s0)      ; 0x11
		la   s1, vals
		lw   t1, 0(s1)
		sb   t1, 8(s0)      ; low byte 0xEF
		lb   t2, 8(s0)      ; sign extends to 0xFFFFFFEF
		lbu  t3, 8(s0)
		sh   t1, 12(s0)
		lhu  t4, 12(s0)
		halt
	`)
	_ = p
	run(t, cpu)
	checks := []struct {
		r    isa.Reg
		want uint32
	}{
		{isa.A0, 0x11223344},
		{isa.A1, 0x3344},
		{isa.A2, 0x1122},
		{isa.A3, 0x11},
		{isa.T2, 0xFFFFFFEF},
		{isa.T3, 0xEF},
		{isa.T4, 0xBEEF},
	}
	for _, c := range checks {
		if got := cpu.Reg(c.r); got != c.want {
			t.Errorf("%s = %#x, want %#x", c.r, got, c.want)
		}
	}
}

func TestNegativeLoadSignExtension(t *testing.T) {
	cpu, _ := buildCPU(t, `
		.data
	v:	.half 0x8000
		.text
	e:	la  s0, v
		lh  a0, 0(s0)
		lhu a1, 0(s0)
		halt
	`)
	run(t, cpu)
	if got := cpu.Reg(isa.A0); got != 0xFFFF8000 {
		t.Errorf("lh = %#x, want 0xFFFF8000", got)
	}
	if got := cpu.Reg(isa.A1); got != 0x8000 {
		t.Errorf("lhu = %#x, want 0x8000", got)
	}
}

func TestBranchesAndLoop(t *testing.T) {
	// Sum 1..10 with a loop.
	cpu, _ := buildCPU(t, `
		li   t0, 0     ; i
		li   t1, 0     ; sum
		li   t2, 10
	loop:
		addi t0, t0, 1
		add  t1, t1, t0
		blt  t0, t2, loop
		mv   a0, t1
		halt
	`)
	steps, reason := run(t, cpu)
	if reason != StopHalt {
		t.Errorf("reason = %v, want StopHalt", reason)
	}
	if got := cpu.Reg(isa.A0); got != 55 {
		t.Errorf("sum = %d, want 55", got)
	}
	// 6 setup (3 li = 6) + 10 iterations * 3 + mv + halt = 6+30+2 = 38.
	if steps != 38 {
		t.Errorf("steps = %d, want 38", steps)
	}
}

func TestCallReturn(t *testing.T) {
	cpu, _ := buildCPU(t, `
	main:
		li   a0, 20
		call double
		call double
		halt
	double:
		add  a0, a0, a0
		ret
	`)
	run(t, cpu)
	if got := cpu.Reg(isa.A0); got != 80 {
		t.Errorf("a0 = %d, want 80", got)
	}
}

func TestStackPushPop(t *testing.T) {
	cpu, _ := buildCPU(t, `
		addi sp, sp, -8
		li   t0, 111
		li   t1, 222
		sw   t0, 0(sp)
		sw   t1, 4(sp)
		lw   a0, 0(sp)
		lw   a1, 4(sp)
		addi sp, sp, 8
		halt
	`)
	run(t, cpu)
	if cpu.Reg(isa.A0) != 111 || cpu.Reg(isa.A1) != 222 {
		t.Errorf("a0=%d a1=%d, want 111 222", cpu.Reg(isa.A0), cpu.Reg(isa.A1))
	}
}

func TestReturnToFramework(t *testing.T) {
	// The framework convention: ra holds ReturnAddress; a bare ret ends
	// the run with StopReturn.
	cpu, _ := buildCPU(t, `
		li  a0, 7
		ret
	`)
	_, reason := run(t, cpu)
	if reason != StopReturn {
		t.Errorf("reason = %v, want StopReturn", reason)
	}
	if cpu.Reg(isa.A0) != 7 {
		t.Errorf("a0 = %d", cpu.Reg(isa.A0))
	}
}

func TestPacketRegionAccess(t *testing.T) {
	cpu, _ := buildCPU(t, `
		lw   a1, 0(a0)       ; read packet word
		addi a1, a1, 1
		sw   a1, 0(a0)       ; write it back
		halt
	`)
	pkt := cpu.Mem.Layout().PacketBase
	cpu.Mem.Write32(pkt, 41)
	cpu.SetReg(isa.A0, pkt)
	run(t, cpu)
	if got := cpu.Mem.Read32(pkt); got != 42 {
		t.Errorf("packet word = %d, want 42", got)
	}
}

func faultKind(t *testing.T, err error) FaultKind {
	t.Helper()
	var f *Fault
	if !errors.As(err, &f) {
		t.Fatalf("error %v is not a *Fault", err)
	}
	return f.Kind
}

func TestFaults(t *testing.T) {
	cases := []struct {
		name string
		src  string
		prep func(*CPU)
		want FaultKind
	}{
		{"unmapped load", "li s0, 0x40000000\nlw a0, 0(s0)\nhalt", nil, FaultUnmapped},
		{"unmapped store", "li s0, 0x40000000\nsw a0, 0(s0)\nhalt", nil, FaultUnmapped},
		{"nil deref", "lw a0, 0(zero)\nhalt", nil, FaultUnmapped},
		{"unaligned word", "li s0, 0x20000002\nlw a0, 0(s0)\nhalt", nil, FaultUnaligned},
		{"unaligned half store", "li s0, 0x20000001\nsh a0, 0(s0)\nhalt", nil, FaultUnaligned},
		{"text write", "la s0, e\ne: sw a0, 0(s0)\nhalt", nil, FaultTextWrite},
		{"text read as data", "la s0, e\ne: lw a0, 0(s0)\nhalt", nil, FaultUnmapped},
		{"run off end", "nop", nil, FaultBadFetch},
		{"wild jump", "li s0, 0x00001000\njr s0\nhalt", nil, FaultBadFetch},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			cpu, _ := buildCPU(t, c.src)
			cpu.Regs[isa.RA] = 0 // force "run off end" rather than clean return
			if c.prep != nil {
				c.prep(cpu)
			}
			_, _, err := cpu.Run(1000)
			if err == nil {
				t.Fatal("run succeeded, want fault")
			}
			if got := faultKind(t, err); got != c.want {
				t.Errorf("fault = %v, want %v (%v)", got, c.want, err)
			}
		})
	}
}

func TestStepLimit(t *testing.T) {
	cpu, _ := buildCPU(t, "loop: j loop")
	_, _, err := cpu.Run(100)
	if err == nil || faultKind(t, err) != FaultStepLimit {
		t.Fatalf("err = %v, want step limit fault", err)
	}
	if cpu.Steps() != 100 {
		t.Errorf("Steps() = %d, want 100", cpu.Steps())
	}
}

// traceRecorder captures tracer callbacks for assertions, turning the
// passes over the text at base into executed pcs.
type traceRecorder struct {
	base uint32
	pcs  []uint32
	mems []memEvent
}

type memEvent struct {
	addr   uint32
	size   uint8
	write  bool
	region Region
}

func (r *traceRecorder) Pass(first, last int) {
	for i := first; i <= last; i++ {
		r.pcs = append(r.pcs, r.base+uint32(i)*isa.WordSize)
	}
}
func (r *traceRecorder) Mem(pc, addr uint32, size uint8, write bool, region Region) {
	r.mems = append(r.mems, memEvent{addr, size, write, region})
}

func TestTracerObservesEverything(t *testing.T) {
	cpu, p := buildCPU(t, `
		.data
	v:	.word 5
		.text
	e:	la   s0, v
		lw   t0, 0(s0)      ; data read
		lw   t1, 0(a0)      ; packet read
		sw   t0, 4(a0)      ; packet write
		addi sp, sp, -4
		sw   t0, 0(sp)      ; stack write
		halt
	`)
	_ = p
	rec := &traceRecorder{base: p.TextBase}
	cpu.Tracer = rec
	cpu.SetReg(isa.A0, cpu.Mem.Layout().PacketBase)
	steps, _ := run(t, cpu)
	if uint64(len(rec.pcs)) != steps {
		t.Errorf("tracer saw %d instructions, run reported %d", len(rec.pcs), steps)
	}
	// PCs must be sequential from the text base for this straight-line code
	// (la is 2 instructions).
	for i, pc := range rec.pcs {
		want := p.TextBase + uint32(i)*4
		if pc != want {
			t.Errorf("pc[%d] = %#x, want %#x", i, pc, want)
		}
	}
	wantMems := []memEvent{
		{p.DataBase, 4, false, RegionData},
		{cpu.Mem.Layout().PacketBase, 4, false, RegionPacket},
		{cpu.Mem.Layout().PacketBase + 4, 4, true, RegionPacket},
		{cpu.Mem.Layout().StackEnd - 4, 4, true, RegionStack},
	}
	if len(rec.mems) != len(wantMems) {
		t.Fatalf("tracer saw %d mem events, want %d: %+v", len(rec.mems), len(wantMems), rec.mems)
	}
	for i, w := range wantMems {
		if rec.mems[i] != w {
			t.Errorf("mem[%d] = %+v, want %+v", i, rec.mems[i], w)
		}
	}
}

// TestLayoutCheck pins the layouts a Memory refuses: region bounds that
// are not word aligned or reversed, and regions that overlap.
func TestLayoutCheck(t *testing.T) {
	if err := memLayout.Check(); err != nil {
		t.Fatalf("test layout refused: %v", err)
	}
	for name, edit := range map[string]func(*Layout){
		"unaligned data end":   func(l *Layout) { l.DataEnd -= 2 },
		"reversed packet":      func(l *Layout) { l.PacketEnd = l.PacketBase - 4 },
		"data overlaps packet": func(l *Layout) { l.DataEnd = l.PacketBase + 4 },
		"stack overlaps text":  func(l *Layout) { l.StackBase, l.StackEnd = l.TextBase, l.TextEnd },
		"data wraps the space": func(l *Layout) { l.DataEnd = l.DataBase + 0xF0000000 },
	} {
		l := memLayout
		edit(&l)
		if l.Check() == nil {
			t.Errorf("%s: Check accepted %+v", name, l)
		}
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: NewMemory accepted the layout", name)
				}
			}()
			NewMemory(l)
		}()
	}
}

func TestLayoutClassify(t *testing.T) {
	l := Layout{
		TextBase: 0x1000, TextEnd: 0x2000,
		PacketBase: 0x20000000, PacketEnd: 0x20000800,
		DataBase: 0x10000000, DataEnd: 0x10100000,
		StackBase: 0x7FFF0000, StackEnd: 0x80000000,
	}
	cases := []struct {
		addr uint32
		want Region
	}{
		{0x0FFF, RegionNone},
		{0x1000, RegionText},
		{0x1FFF, RegionText},
		{0x2000, RegionNone},
		{0x20000000, RegionPacket},
		{0x200007FF, RegionPacket},
		{0x20000800, RegionNone},
		{0x10000000, RegionData},
		{0x100FFFFF, RegionData},
		{0x7FFF0000, RegionStack},
		{0x7FFFFFFF, RegionStack},
		{0x80000000, RegionNone},
		{0xFFFFFFF0, RegionNone},
	}
	for _, c := range cases {
		if got := l.Classify(c.addr); got != c.want {
			t.Errorf("Classify(%#x) = %v, want %v", c.addr, got, c.want)
		}
	}
}

// memLayout is the layout the Memory tests run under: testLayout with a
// 1 MiB data region and 64 KiB packet and stack regions.
var memLayout = testLayout(0x00400000, 16)

func TestMemoryRoundTrip(t *testing.T) {
	m := NewMemory(memLayout)
	l := memLayout
	// Property: Write32 then Read32 round-trips at any aligned address of
	// any region.
	f := func(addr uint32, v uint32) bool {
		span := [3][2]uint32{{l.PacketBase, l.PacketEnd}, {l.DataBase, l.DataEnd}, {l.StackBase, l.StackEnd}}[addr%3]
		addr = span[0] + addr%(span[1]-span[0])&^3
		m.Write32(addr, v)
		return m.Read32(addr) == v
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 5000}); err != nil {
		t.Error(err)
	}
}

func TestMemoryLittleEndian(t *testing.T) {
	m := NewMemory(memLayout)
	a := memLayout.DataBase + 0x100
	m.Write32(a, 0x04030201)
	if got := m.ReadBytes(a, 4); string(got) != "\x01\x02\x03\x04" {
		t.Errorf("bytes = %v, want [1 2 3 4]", got)
	}
	m.WriteBytes(a+1, []byte{0xAA})
	if got := m.Read32(a); got != 0x0403AA01 {
		t.Errorf("Read32 = %#x, want 0x0403aa01", got)
	}
}

// TestMemoryCrossPageAccess writes and reads host runs that cross the
// data slice's current length, which grows to hold them.
func TestMemoryCrossPageAccess(t *testing.T) {
	m := NewMemory(memLayout)
	base := memLayout.DataBase
	m.Write32(base, 1)
	end := uint32(m.Extent(RegionData))
	m.WriteBytes(base+end-2, []byte{1, 2, 3, 4})
	if got := m.ReadBytes(base+end-2, 4); string(got) != "\x01\x02\x03\x04" {
		t.Errorf("bytes across the slice end = %v", got)
	}
	if m.Extent(RegionData) != 2*int(end) {
		t.Errorf("extent %d, want %d", m.Extent(RegionData), 2*end)
	}
	// An unaligned host word straddling the slice end (the CPU would
	// fault first).
	end = uint32(m.Extent(RegionData))
	m.Write32(base+end-2, 0xAABBCCDD)
	if got := m.Read32(base + end - 2); got != 0xAABBCCDD {
		t.Errorf("word across the slice end = %#x", got)
	}
}

// TestMemoryZeroAndSparse checks that reads and Zero grow nothing, that
// a write grows its region's slice by doubling from 4 KiB, and that a
// slice never grows past its region.
func TestMemoryZeroAndSparse(t *testing.T) {
	m := NewMemory(memLayout)
	a := memLayout.DataBase + 0x5000
	if m.Read32(a) != 0 || len(m.ReadBytes(memLayout.DataBase, 1<<20)) != 1<<20 {
		t.Error("untouched memory not zero")
	}
	if m.Extent(RegionData) != 0 {
		t.Error("a read grew the slice")
	}
	m.Write32(a, 7)
	if got := m.Extent(RegionData); got != 0x8000 {
		t.Errorf("extent %#x after a write at 0x5000, want 0x8000", got)
	}
	m.Write32(memLayout.DataBase+0x7FFC, 9)
	m.Zero(a, 4)
	if m.Read32(a) != 0 || m.Read32(memLayout.DataBase+0x7FFC) != 9 {
		t.Error("Zero did not clear exactly its bytes")
	}
	// A Zero run that crosses the slice's end clears the part inside it
	// and grows nothing.
	m.Zero(memLayout.DataBase+0x7000, 1<<16)
	if m.Read32(memLayout.DataBase+0x7FFC) != 0 || m.Extent(RegionData) != 0x8000 {
		t.Errorf("Zero across the slice end: word %#x, extent %#x", m.Read32(memLayout.DataBase+0x7FFC), m.Extent(RegionData))
	}
	m.Write32(memLayout.StackEnd-4, 1)
	if got := m.Extent(RegionStack); got != int(memLayout.StackEnd-memLayout.StackBase) {
		t.Errorf("stack extent %#x, want the whole region", got)
	}
}

func TestWriteBytesReadBytesRoundTrip(t *testing.T) {
	m := NewMemory(memLayout)
	size := memLayout.DataEnd - memLayout.DataBase
	f := func(addr uint32, data []byte) bool {
		if len(data) > 1<<16 {
			data = data[:1<<16]
		}
		addr = memLayout.DataBase + addr%(size-uint32(len(data)))
		m.WriteBytes(addr, data)
		got := m.ReadBytes(addr, len(data))
		return string(got) == string(data)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// TestHostAccessOutsideRegionsPanics pins that a host access that does
// not lie wholly inside one region panics, naming the access.
func TestHostAccessOutsideRegionsPanics(t *testing.T) {
	m := NewMemory(memLayout)
	for name, access := range map[string]func(){
		"text write":         func() { m.Write32(memLayout.TextBase, 1) },
		"unmapped read":      func() { m.Read32(0x30000000) },
		"run past data end":  func() { m.WriteBytes(memLayout.DataEnd-2, []byte{1, 2, 3, 4}) },
		"zero past data end": func() { m.Zero(memLayout.DataEnd-4, 8) },
	} {
		func() {
			defer func() {
				if msg, _ := recover().(string); !strings.Contains(msg, "outside every region") {
					t.Errorf("%s: recovered %q, want a panic naming the access", name, msg)
				}
			}()
			access()
		}()
	}
}

func TestJALRAlignsTarget(t *testing.T) {
	// jalr masks the low two bits of the target.
	cpu, p := buildCPU(t, `
		la  s0, target
		ori s0, s0, 3
		jalr ra, 0(s0)
	bad:	halt
	target:
		li  a0, 1
		halt
	`)
	run(t, cpu)
	if cpu.Reg(isa.A0) != 1 {
		t.Errorf("jalr did not mask alignment bits; a0 = %d", cpu.Reg(isa.A0))
	}
	_ = p
}

func TestRegionString(t *testing.T) {
	for r, want := range regionNames {
		if got := r.String(); got != want {
			t.Errorf("Region(%d).String() = %q, want %q", r, got, want)
		}
	}
	if got := Region(99).String(); got == "" {
		t.Error("unknown region produced empty string")
	}
}

func TestFaultError(t *testing.T) {
	f := &Fault{Kind: FaultUnmapped, PC: 0x1000, Addr: 0x4}
	msg := f.Error()
	for _, frag := range []string{"unmapped", "0x1000", "0x4"} {
		if !contains(msg, frag) {
			t.Errorf("fault message %q missing %q", msg, frag)
		}
	}
}

func contains(s, sub string) bool {
	return len(s) >= len(sub) && (s == sub || len(sub) == 0 || indexOf(s, sub) >= 0)
}

func indexOf(s, sub string) int {
	for i := 0; i+len(sub) <= len(s); i++ {
		if s[i:i+len(sub)] == sub {
			return i
		}
	}
	return -1
}

func TestPacketWriteHighWatermark(t *testing.T) {
	// Stores into the packet region must advance the watermark to the
	// store's exclusive end; data/stack stores must not move it.
	c, _ := buildCPU(t, `
		li  t0, 0x20000000
		li  t1, 0xAB
		sb  t1, 100(t0)
		sw  t1, 200(t0)
		la  t2, scratch
		sw  t1, 0(t2)
		ret
		.data
	scratch: .word 0
	`)
	if c.PacketWriteHigh() != 0 {
		t.Fatalf("fresh CPU watermark = %#x", c.PacketWriteHigh())
	}
	run(t, c)
	if got := c.PacketWriteHigh(); got != 0x20000000+204 {
		t.Errorf("watermark = %#x, want %#x", got, 0x20000000+204)
	}
	c.ResetPacketWriteHigh()
	if c.PacketWriteHigh() != 0 {
		t.Error("watermark not reset")
	}
}

func TestFaultErrorsIsAs(t *testing.T) {
	cpu, _ := buildCPU(t, "li s0, 0x40000000\nlw a0, 0(s0)\nhalt")
	_, _, err := cpu.Run(100)
	if err == nil {
		t.Fatal("run succeeded, want fault")
	}
	// Matching by bare kind, through fmt wrapping.
	wrapped := fmt.Errorf("core 3: packet 17: %w", err)
	if !errors.Is(wrapped, FaultUnmapped) {
		t.Errorf("errors.Is(%v, FaultUnmapped) = false", wrapped)
	}
	if errors.Is(wrapped, FaultStepLimit) {
		t.Error("errors.Is matched the wrong kind")
	}
	// Matching by *Fault template with wildcard PC/Addr.
	if !errors.Is(wrapped, &Fault{Kind: FaultUnmapped}) {
		t.Error("wildcard *Fault template did not match")
	}
	if errors.Is(wrapped, &Fault{Kind: FaultUnmapped, Addr: 0x1234}) {
		t.Error("*Fault template with mismatched Addr matched")
	}
	// errors.As still extracts the concrete fault.
	var f *Fault
	if !errors.As(wrapped, &f) || f.Kind != FaultUnmapped || f.Addr != 0x40000000 {
		t.Errorf("errors.As fault = %+v", f)
	}
}

func TestFaultKindNames(t *testing.T) {
	if got := FaultNone.String(); got != "none" {
		t.Errorf("FaultNone.String() = %q", got)
	}
	for k := FaultBadFetch; k <= FaultHostPanic; k++ {
		if s := k.String(); strings.HasPrefix(s, "fault?") {
			t.Errorf("kind %d has no name", k)
		}
	}
	if got := FaultKind(250).String(); got != "fault?250" {
		t.Errorf("unknown kind String() = %q", got)
	}
}
