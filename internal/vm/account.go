package vm

import (
	"math/bits"

	"repro/internal/analysis"
)

// Account is the per-packet selective account both engines keep inline,
// as the paper's simulator counted where it executed: instructions run
// and how many were distinct, the blocks run, data accesses by region
// and direction and, while coverage is on, the whole-run sets of touched
// instructions and data words. A CPU updates the Account in CPU.Account
// with no call per event: an access bumps a counter in the memory region
// its lookup resolved, which the run adds to Accesses as it ends, and a
// pass costs one stamp compare once its instructions are known to have
// run in the packet.
type Account struct {
	// Instructions is the number of instructions executed since Begin:
	// the steps the runs charged.
	Instructions uint64
	// Unique is the number of distinct instructions executed since Begin.
	Unique int
	// Accesses[r][w] counts the data accesses to region r since Begin:
	// reads at w = 0, writes at w = 1.
	Accesses [RegionStack + 1][2]uint64

	blocks *analysis.BlockMap
	layout Layout // sizes the coverage sets

	// Epoch stamps make the per-packet reset O(1); epoch 0 is never
	// current. ran[b] means block b ran in the packet and full[b] that a
	// pass covered all of it; passes over part of a block stamp their
	// instructions in seen. whole[i] means a pass from instruction i
	// reached its block's end, so a later pass from i, which covers a
	// prefix of that range, finds nothing new.
	epoch                  uint32
	seen, whole, ran, full []uint32

	// Whole-run coverage: touched[RegionText] has a bit per instruction,
	// touched[r] a bit per 32-bit word of region r. Allocated by the first
	// Begin with coverage. marking holds the sets the packet marks:
	// touched while coverage is on, else none. CPU.bind hands each data
	// region's set to that region of the memory.
	touched, marking [RegionStack + 1][]uint64
}

// NewAccount creates the account of a program with the given basic
// blocks, running over a memory with the given layout.
func NewAccount(blocks *analysis.BlockMap, layout Layout) *Account {
	n, nb := blocks.NumInstructions(), blocks.NumBlocks()
	return &Account{blocks: blocks, layout: layout, seen: make([]uint32, n), whole: make([]uint32, n),
		ran: make([]uint32, nb), full: make([]uint32, nb)}
}

// Begin starts the account of a packet, whose instructions and data
// words join the whole-run coverage sets while coverage is true.
func (a *Account) Begin(coverage bool) {
	if a.epoch++; a.epoch == 0 {
		// The stamp wrapped: every stamp left from 2^32 packets ago
		// would read as current. Forget them all.
		clear(a.seen)
		clear(a.whole)
		clear(a.ran)
		clear(a.full)
		a.epoch = 1
	}
	a.Instructions, a.Unique, a.Accesses = 0, 0, [RegionStack + 1][2]uint64{}
	a.marking = [RegionStack + 1][]uint64{}
	if !coverage {
		return
	}
	if a.touched[RegionText] == nil {
		l := a.layout
		words := func(base, end uint32) []uint64 { return make([]uint64, ((end-base+3)/4+63)/64) }
		a.touched = [RegionStack + 1][]uint64{RegionText: make([]uint64, (len(a.seen)+63)/64),
			RegionPacket: words(l.PacketBase, l.PacketEnd), RegionData: words(l.DataBase, l.DataEnd),
			RegionStack: words(l.StackBase, l.StackEnd)}
	}
	a.marking = a.touched
}

// pass accounts the pass first..last, which lies inside one block.
func (a *Account) pass(first, last int) {
	if a != nil && a.whole[first] != a.epoch {
		a.scan(first, last)
	}
}

// scan accounts the packet's first pass from first. A whole-block pass
// over a block no pass has touched adds the block's size with no
// per-instruction work.
//
//go:noinline
func (a *Account) scan(first, last int) {
	b := a.blocks.BlockOfIndex(first)
	lo, hi := a.blocks.LeaderIndex(b), a.blocks.EndIndex(b)
	if last+1 == hi {
		a.whole[first] = a.epoch
	}
	for i, set := first, a.marking[RegionText]; set != nil && i <= last; {
		// Set bits i..last of the text set, a word at a time.
		n := min(last, i|63) - i + 1
		set[i>>6] |= (1<<n - 1) << (i & 63)
		i += n
	}
	switch {
	case a.full[b] == a.epoch:
	case first == lo && last+1 == hi:
		a.Unique += hi - lo
		for i := lo; a.ran[b] == a.epoch && i < hi; i++ {
			if a.seen[i] == a.epoch { // seen by a pass over part of the block
				a.Unique--
			}
		}
		a.full[b] = a.epoch
	default:
		for i := first; i <= last; i++ {
			if a.seen[i] != a.epoch {
				a.seen[i] = a.epoch
				a.Unique++
			}
		}
	}
	a.ran[b] = a.epoch
}

// AppendBlocks appends the ids of the blocks executed since Begin to dst
// in ascending order.
func (a *Account) AppendBlocks(dst []int) []int {
	for b, e := range a.ran {
		if e == a.epoch {
			dst = append(dst, b)
		}
	}
	return dst
}

// Touched returns how many instructions (for RegionText) or 32-bit words
// of region r ran or were accessed while coverage was on.
func (a *Account) Touched(r Region) int {
	n := 0
	for _, w := range a.touched[r] {
		n += bits.OnesCount64(w)
	}
	return n
}

// Union adds o's whole-run coverage sets to a's, so a run split across
// cores, one account each, reports what any of them touched. Both
// accounts must belong to one program and layout.
func (a *Account) Union(o *Account) {
	for r, set := range o.touched {
		if set != nil && a.touched[r] == nil {
			a.touched[r] = make([]uint64, len(set))
		}
		for i, w := range set {
			a.touched[r][i] |= w
		}
	}
}
