// Package analysis implements the workload analyses of the paper's
// evaluation section: basic-block discovery and execution statistics
// (Figures 7 and 8), occurrence tables for instruction-count variation
// (Tables V and VI), per-packet instruction patterns (Figure 6), and the
// weighted basic-block flow graph sketched in the paper's introduction.
//
// The package is pure computation over execution traces; collection of
// those traces lives in internal/stats.
package analysis

import (
	"cmp"
	"fmt"
	"slices"
	"sort"
	"strings"

	"repro/internal/isa"
)

// BlockMap is the static basic-block decomposition of a program's text
// segment. A basic block is a maximal straight-line instruction sequence:
// leaders are the entry point, every branch/jump target, and every
// instruction following a control transfer.
type BlockMap struct {
	textBase uint32
	// of[i] is the block id of instruction i; block ids are dense and
	// ordered by leader address.
	of []int
	// leaders[b] is the instruction index of block b's first instruction.
	leaders []int
}

// NewBlockMap computes the basic blocks of a text segment. Jump-register
// (JALR) targets are not statically known; JALR conservatively ends a
// block, and every instruction that any call could return to (the one
// after a JAL with a link register) starts one, which is exactly right
// for the call/return discipline the assembler's pseudo-instructions
// produce.
func NewBlockMap(text []isa.Instruction, textBase uint32) *BlockMap {
	n := len(text)
	isLeader := make([]bool, n)
	if n > 0 {
		isLeader[0] = true
	}
	for i, in := range text {
		if !in.Op.IsControl() {
			continue
		}
		// The instruction after a control transfer begins a block.
		if i+1 < n {
			isLeader[i+1] = true
		}
		// Static targets of branches and JAL begin blocks.
		if in.Op.IsBranch() || in.Op == isa.JAL {
			t := i + 1 + int(in.Imm)
			if t >= 0 && t < n {
				isLeader[t] = true
			}
		}
	}
	m := &BlockMap{textBase: textBase, of: make([]int, n)}
	block := -1
	for i := range text {
		if isLeader[i] {
			block++
			m.leaders = append(m.leaders, i)
		}
		m.of[i] = block
	}
	return m
}

// NumBlocks returns the number of basic blocks.
func (m *BlockMap) NumBlocks() int { return len(m.leaders) }

// NumInstructions returns the instruction count of the mapped text.
func (m *BlockMap) NumInstructions() int { return len(m.of) }

// BlockOf returns the block id containing the instruction at pc, or -1
// if pc is outside the text segment.
func (m *BlockMap) BlockOf(pc uint32) int {
	idx := int(pc-m.textBase) / isa.WordSize
	if pc < m.textBase || idx >= len(m.of) {
		return -1
	}
	return m.of[idx]
}

// BlockOfIndex returns the block id of instruction index i.
func (m *BlockMap) BlockOfIndex(i int) int { return m.of[i] }

// LeaderIndex returns the instruction index of block b's leader. An
// instruction i begins an execution of block b exactly when
// i == LeaderIndex(BlockOfIndex(i)): branch targets and call-return
// points are always leaders by construction.
func (m *BlockMap) LeaderIndex(b int) int { return m.leaders[b] }

// Leader returns the address of block b's first instruction.
func (m *BlockMap) Leader(b int) uint32 {
	return m.textBase + uint32(m.leaders[b])*isa.WordSize
}

// Size returns the instruction count of block b.
func (m *BlockMap) Size(b int) int {
	return m.EndIndex(b) - m.leaders[b]
}

// EndIndex returns the exclusive end instruction index of block b: the
// index one past its terminator. The block-threaded engine uses it to
// bound straight-line execution of a block body.
func (m *BlockMap) EndIndex(b int) int {
	if b+1 < len(m.leaders) {
		return m.leaders[b+1]
	}
	return len(m.of)
}

// TerminatorIndex returns the instruction index of block b's last
// instruction — the one that decides where control goes next.
func (m *BlockMap) TerminatorIndex(b int) int {
	return m.leaders[b] + m.Size(b) - 1
}

// Successors computes the static control-flow successor edges of every
// basic block: branch targets plus fall-through, JAL targets (with the
// fall-through return point when the jump links, per the assembler's
// call discipline), and plain fall-through for blocks split by a
// following leader. JALR targets are not statically known and contribute
// no edges; HALT ends the graph. Targets outside the text segment are
// omitted (the static verifier reports them as diagnostics). text must
// be the instruction slice the map was built from.
func Successors(text []isa.Instruction, m *BlockMap) [][]int {
	succs := make([][]int, m.NumBlocks())
	addEdge := func(b int, idx int) {
		if idx < 0 || idx >= len(text) {
			return
		}
		t := m.of[idx]
		for _, s := range succs[b] {
			if s == t {
				return
			}
		}
		succs[b] = append(succs[b], t)
	}
	for b := 0; b < m.NumBlocks(); b++ {
		last := m.TerminatorIndex(b)
		in := text[last]
		switch {
		case in.Op == isa.HALT:
			// no successors
		case in.Op.IsBranch():
			addEdge(b, last+1+int(in.Imm))
			addEdge(b, last+1)
		case in.Op == isa.JAL:
			addEdge(b, last+1+int(in.Imm))
			if in.Rd != isa.Zero {
				// A linking jump is a call; control returns to the
				// fall-through instruction.
				addEdge(b, last+1)
			}
		case in.Op == isa.JALR:
			// Target unknown statically (function return or indirect
			// jump); no edges.
		default:
			addEdge(b, last+1)
		}
	}
	return succs
}

// Predecessors inverts a successor edge list.
func Predecessors(succs [][]int) [][]int {
	preds := make([][]int, len(succs))
	for b, ss := range succs {
		for _, s := range ss {
			preds[s] = append(preds[s], b)
		}
	}
	return preds
}

// BlockProbabilities returns, for each block, the fraction of packets
// whose execution touched it (Figure 7 of the paper). blockSets holds the
// sorted block-id sets of each packet.
func BlockProbabilities(blockSets [][]int, numBlocks int) []float64 {
	counts := make([]int, numBlocks)
	for _, set := range blockSets {
		for _, b := range set {
			if b >= 0 && b < numBlocks {
				counts[b]++
			}
		}
	}
	probs := make([]float64, numBlocks)
	if len(blockSets) == 0 {
		return probs
	}
	for b, c := range counts {
		probs[b] = float64(c) / float64(len(blockSets))
	}
	return probs
}

// CoveragePoint is one point of the Figure 8 curve: retaining the Blocks
// most frequently executed basic blocks in the instruction store lets the
// fast path fully process a Coverage fraction of packets.
type CoveragePoint struct {
	Blocks   int
	Coverage float64
}

// CoverageCurve computes the packet-coverage-versus-instruction-store
// tradeoff of Figure 8. Blocks are ranked by execution probability
// (descending); a packet is covered by a store of size k if every block it
// executes ranks within the top k. The returned curve has one point per
// store size from 1 to numBlocks.
func CoverageCurve(blockSets [][]int, numBlocks int) []CoveragePoint {
	probs := BlockProbabilities(blockSets, numBlocks)
	// Rank blocks by descending probability (stable on id for
	// determinism).
	order := make([]int, numBlocks)
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(i, j int) bool {
		return probs[order[i]] > probs[order[j]]
	})
	rank := make([]int, numBlocks) // rank[block] = 1-based position
	for pos, b := range order {
		rank[b] = pos + 1
	}
	// Each packet needs a store at least as large as its worst-ranked
	// block.
	needed := make([]int, numBlocks+1)
	for _, set := range blockSets {
		worst := 0
		for _, b := range set {
			if b >= 0 && b < numBlocks && rank[b] > worst {
				worst = rank[b]
			}
		}
		needed[worst]++
	}
	curve := make([]CoveragePoint, numBlocks)
	cum := needed[0] // packets that executed nothing
	for k := 1; k <= numBlocks; k++ {
		cum += needed[k]
		curve[k-1] = CoveragePoint{Blocks: k, Coverage: float64(cum) / float64(max(1, len(blockSets)))}
	}
	return curve
}

// MinBlocksForCoverage returns the smallest instruction-store size (in
// blocks) achieving at least the target packet coverage, the "sweet spot"
// the paper reads off Figure 8. It returns numBlocks if the target is
// unreachable.
func MinBlocksForCoverage(curve []CoveragePoint, target float64) int {
	for _, p := range curve {
		if p.Coverage >= target {
			return p.Blocks
		}
	}
	if len(curve) == 0 {
		return 0
	}
	return curve[len(curve)-1].Blocks
}

// FlowGraph is the weighted basic-block transition graph the paper's
// introduction proposes for studying the dynamics of packet processing:
// edge (a, b) carries the number of times execution transferred from
// block a directly to block b.
type FlowGraph struct {
	NumBlocks int
	// weight[b] counts executions (entries) of block b.
	weight []uint64
	// succ[a] holds the edges out of block a in the order first taken.
	// A block has one or two successors (more only behind an indirect
	// jump), so a scan of the list finds an edge.
	succ [][]flowEdge
}

type flowEdge struct {
	to int
	w  uint64
}

// NewFlowGraph returns an empty flow graph over numBlocks blocks.
func NewFlowGraph(numBlocks int) *FlowGraph {
	return &FlowGraph{
		NumBlocks: numBlocks,
		weight:    make([]uint64, numBlocks),
		succ:      make([][]flowEdge, numBlocks),
	}
}

// Add folds one packet's block execution sequence (the dynamic sequence
// of blocks entered, not the deduplicated set) into the graph, so a run
// builds it as each packet ends and keeps no sequence.
func (g *FlowGraph) Add(seq []int) {
	for i, b := range seq {
		g.weight[b]++
		if i > 0 {
			g.addEdge(seq[i-1], b)
		}
	}
}

func (g *FlowGraph) addEdge(from, to int) {
	es := g.succ[from]
	for i := range es {
		if es[i].to == to {
			es[i].w++
			return
		}
	}
	g.succ[from] = append(es, flowEdge{to: to, w: 1})
}

// NodeWeight returns how many times block b was entered.
func (g *FlowGraph) NodeWeight(b int) uint64 { return g.weight[b] }

// Edge returns how many times execution went from block from straight
// to block to.
func (g *FlowGraph) Edge(from, to int) uint64 {
	for _, e := range g.succ[from] {
		if e.to == to {
			return e.w
		}
	}
	return 0
}

// NumEdges returns the number of distinct edges taken.
func (g *FlowGraph) NumEdges() int {
	n := 0
	for _, es := range g.succ {
		n += len(es)
	}
	return n
}

// Dot renders the flow graph in Graphviz format with edge weights,
// ordered by source block and then by target block. It sorts each
// block's edges in place.
func (g *FlowGraph) Dot() string {
	var s strings.Builder
	s.WriteString("digraph packetflow {\n")
	for from, es := range g.succ {
		slices.SortFunc(es, func(a, b flowEdge) int { return cmp.Compare(a.to, b.to) })
		for _, e := range es {
			fmt.Fprintf(&s, "  b%d -> b%d [label=\"%d\"];\n", from, e.to, e.w)
		}
	}
	s.WriteString("}\n")
	return s.String()
}

func max(a, b int) int {
	if a > b {
		return a
	}
	return b
}
