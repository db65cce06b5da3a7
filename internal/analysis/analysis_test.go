package analysis

import (
	"math"
	"testing"

	"repro/internal/asm"
	"repro/internal/isa"
)

func blockMapOf(t *testing.T, src string) (*BlockMap, *asm.Program) {
	t.Helper()
	p, err := asm.Assemble(src, asm.Options{})
	if err != nil {
		t.Fatal(err)
	}
	return NewBlockMap(p.Text, p.TextBase), p
}

func TestBlockMapStraightLine(t *testing.T) {
	m, _ := blockMapOf(t, `
		addi a0, zero, 1
		addi a1, zero, 2
		add  a0, a0, a1
		halt
	`)
	if m.NumBlocks() != 1 {
		t.Fatalf("straight-line code has %d blocks, want 1", m.NumBlocks())
	}
	if m.Size(0) != 4 {
		t.Errorf("block size = %d, want 4", m.Size(0))
	}
}

func TestBlockMapBranches(t *testing.T) {
	m, p := blockMapOf(t, `
		addi t0, zero, 10      ; b0
	loop:
		addi t0, t0, -1        ; b1 (branch target)
		bnez t0, loop          ; ends b1
		addi a0, zero, 1       ; b2 (after branch)
		halt
	`)
	if m.NumBlocks() != 3 {
		t.Fatalf("got %d blocks, want 3", m.NumBlocks())
	}
	// Instruction 0 in b0; instructions 1-2 in b1; 3-4 in b2.
	wantBlocks := []int{0, 1, 1, 2, 2}
	for i, want := range wantBlocks {
		if got := m.BlockOfIndex(i); got != want {
			t.Errorf("instr %d in block %d, want %d", i, got, want)
		}
	}
	loopAddr, _ := p.Symbol("loop")
	if got := m.BlockOf(loopAddr); got != 1 {
		t.Errorf("BlockOf(loop) = %d, want 1", got)
	}
	if m.BlockOf(p.TextBase-4) != -1 || m.BlockOf(p.TextEnd()) != -1 {
		t.Error("out-of-range pc not reported as -1")
	}
	if m.Leader(1) != loopAddr {
		t.Errorf("Leader(1) = %#x, want %#x", m.Leader(1), loopAddr)
	}
}

func TestBlockMapCalls(t *testing.T) {
	m, _ := blockMapOf(t, `
	main:
		call f        ; ends b0
		halt          ; b1
	f:
		add a0, a0, a0
		ret           ; b2 ends
	`)
	// call is 1 instr (b0), halt (b1), f body+ret (b2).
	if m.NumBlocks() != 3 {
		t.Fatalf("got %d blocks, want 3", m.NumBlocks())
	}
	if m.NumInstructions() != 4 {
		t.Errorf("NumInstructions = %d", m.NumInstructions())
	}
}

func TestBlockProbabilities(t *testing.T) {
	sets := [][]int{
		{0, 1},
		{0, 2},
		{0, 1, 2},
		{0},
	}
	probs := BlockProbabilities(sets, 3)
	want := []float64{1, 0.5, 0.5}
	for i := range want {
		if math.Abs(probs[i]-want[i]) > 1e-9 {
			t.Errorf("prob[%d] = %v, want %v", i, probs[i], want[i])
		}
	}
	// Degenerate inputs.
	if p := BlockProbabilities(nil, 2); p[0] != 0 || p[1] != 0 {
		t.Error("empty input gave nonzero probabilities")
	}
}

func TestCoverageCurve(t *testing.T) {
	// Block 0 executed by all, block 1 by half, block 2 by one packet.
	sets := [][]int{
		{0}, {0}, {0, 1}, {0, 1, 2},
	}
	curve := CoverageCurve(sets, 3)
	if len(curve) != 3 {
		t.Fatalf("curve has %d points", len(curve))
	}
	// Rank order: 0 (p=1), 1 (p=.5), 2 (p=.25).
	// Store=1 covers packets {0},{0} => 0.5; store=2 adds {0,1} => 0.75;
	// store=3 covers all => 1.
	want := []float64{0.5, 0.75, 1.0}
	for i, w := range want {
		if curve[i].Blocks != i+1 || math.Abs(curve[i].Coverage-w) > 1e-9 {
			t.Errorf("curve[%d] = %+v, want {%d %v}", i, curve[i], i+1, w)
		}
	}
	// Monotone nondecreasing is an invariant of the construction.
	for i := 1; i < len(curve); i++ {
		if curve[i].Coverage < curve[i-1].Coverage {
			t.Error("coverage curve not monotone")
		}
	}
}

func TestMinBlocksForCoverage(t *testing.T) {
	curve := []CoveragePoint{{1, 0.5}, {2, 0.75}, {3, 1.0}}
	cases := []struct {
		target float64
		want   int
	}{
		{0.4, 1}, {0.5, 1}, {0.6, 2}, {0.9, 3}, {1.0, 3},
	}
	for _, c := range cases {
		if got := MinBlocksForCoverage(curve, c.target); got != c.want {
			t.Errorf("MinBlocksForCoverage(%v) = %d, want %d", c.target, got, c.want)
		}
	}
	if MinBlocksForCoverage(nil, 0.5) != 0 {
		t.Error("empty curve should give 0")
	}
	// Unreachable target returns the largest store.
	if got := MinBlocksForCoverage([]CoveragePoint{{1, 0.2}, {2, 0.3}}, 0.99); got != 2 {
		t.Errorf("unreachable target = %d, want 2", got)
	}
}

func TestOccurrences(t *testing.T) {
	values := []uint64{100, 100, 100, 200, 200, 50, 300}
	tab := Occurrences(values, 3)
	if tab.Total != 7 {
		t.Errorf("Total = %d", tab.Total)
	}
	if len(tab.Top) != 3 || tab.Top[0].Value != 100 || tab.Top[0].Count != 3 {
		t.Errorf("Top = %+v", tab.Top)
	}
	if tab.Top[1].Value != 200 || tab.Top[1].Count != 2 {
		t.Errorf("Top[1] = %+v", tab.Top[1])
	}
	if tab.Min.Value != 50 || tab.Min.Count != 1 {
		t.Errorf("Min = %+v", tab.Min)
	}
	if tab.Max.Value != 300 || tab.Max.Count != 1 {
		t.Errorf("Max = %+v", tab.Max)
	}
	wantMean := (100.0*3 + 200*2 + 50 + 300) / 7
	if math.Abs(tab.Mean-wantMean) > 1e-9 {
		t.Errorf("Mean = %v, want %v", tab.Mean, wantMean)
	}
	if p := tab.Top[0].Pct(tab.Total); math.Abs(p-3.0/7*100) > 1e-9 {
		t.Errorf("Pct = %v", p)
	}
	wantTop := (3.0 + 2 + 1) / 7 * 100
	if math.Abs(tab.TopPct()-wantTop) > 1e-9 {
		t.Errorf("TopPct = %v, want %v", tab.TopPct(), wantTop)
	}
}

func TestOccurrencesEdgeCases(t *testing.T) {
	empty := Occurrences(nil, 3)
	if empty.Total != 0 || len(empty.Top) != 0 {
		t.Errorf("empty table = %+v", empty)
	}
	single := Occurrences([]uint64{42}, 5)
	if len(single.Top) != 1 || single.Min.Value != 42 || single.Max.Value != 42 {
		t.Errorf("single = %+v", single)
	}
	// Ties break toward the smaller value.
	tied := Occurrences([]uint64{7, 9, 7, 9}, 1)
	if tied.Top[0].Value != 7 {
		t.Errorf("tie break gave %d, want 7", tied.Top[0].Value)
	}
}

func TestInstructionPattern(t *testing.T) {
	pcs := []uint32{100, 104, 108, 104, 108, 112}
	got := InstructionPattern(pcs)
	want := []int{0, 1, 2, 1, 2, 3} // the loop revisits indices 1, 2
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("pattern[%d] = %d, want %d", i, got[i], want[i])
		}
	}
	if UniqueCount(pcs) != 4 {
		t.Errorf("UniqueCount = %d, want 4", UniqueCount(pcs))
	}
}

func TestRepetitionFactor(t *testing.T) {
	if got := RepetitionFactor(400, 100); got != 4 {
		t.Errorf("RepetitionFactor = %v", got)
	}
	if RepetitionFactor(10, 0) != 0 {
		t.Error("division by zero not handled")
	}
}

func TestFlowGraph(t *testing.T) {
	seqs := [][]int{
		{0, 1, 2},
		{0, 1, 1, 2}, // revisiting block 1 adds a self edge
		{0, 2},
	}
	g := NewFlowGraph(3)
	for _, seq := range seqs {
		g.Add(seq)
	}
	if g.Edge(0, 1) != 2 {
		t.Errorf("edge 0->1 = %d, want 2", g.Edge(0, 1))
	}
	if g.Edge(1, 2) != 2 {
		t.Errorf("edge 1->2 = %d, want 2", g.Edge(1, 2))
	}
	if g.Edge(1, 1) != 1 {
		t.Errorf("self edge = %d, want 1", g.Edge(1, 1))
	}
	if g.Edge(0, 2) != 1 {
		t.Errorf("edge 0->2 = %d, want 1", g.Edge(0, 2))
	}
	if g.NodeWeight(0) != 3 || g.NodeWeight(1) != 3 || g.NodeWeight(2) != 3 {
		t.Errorf("node weights = %d, %d, %d; want 3 each", g.NodeWeight(0), g.NodeWeight(1), g.NodeWeight(2))
	}
	if g.NumEdges() != 4 {
		t.Errorf("%d edges, want 4", g.NumEdges())
	}
	// Block 1's edges were first taken to 2, then to 1; Dot sorts them.
	const want = `digraph packetflow {
  b0 -> b1 [label="2"];
  b0 -> b2 [label="1"];
  b1 -> b1 [label="1"];
  b1 -> b2 [label="2"];
}
`
	if dot := g.Dot(); dot != want {
		t.Errorf("Dot =\n%s\nwant\n%s", dot, want)
	}
}

// TestBlockMapRealProgram decomposes a nontrivial program and checks the
// leader invariants hold.
func TestBlockMapRealProgram(t *testing.T) {
	m, p := blockMapOf(t, `
	entry:
		beqz a0, skip
		addi t0, zero, 5
	inner:
		addi t0, t0, -1
		bnez t0, inner
	skip:
		call helper
		halt
	helper:
		ret
	`)
	// Invariants: block ids are dense, sizes are positive and sum to the
	// instruction count, each leader starts its own block.
	total := 0
	for b := 0; b < m.NumBlocks(); b++ {
		sz := m.Size(b)
		if sz <= 0 {
			t.Errorf("block %d has size %d", b, sz)
		}
		total += sz
		if m.BlockOf(m.Leader(b)) != b {
			t.Errorf("leader of block %d maps to block %d", b, m.BlockOf(m.Leader(b)))
		}
	}
	if total != len(p.Text) {
		t.Errorf("block sizes sum to %d, text has %d", total, len(p.Text))
	}
	// Control targets are leaders.
	for name := range map[string]bool{"entry": true, "inner": true, "skip": true, "helper": true} {
		addr, _ := p.Symbol(name)
		b := m.BlockOf(addr)
		if m.Leader(b) != addr {
			t.Errorf("label %s at %#x is not a block leader", name, addr)
		}
	}
	_ = isa.WordSize
}
