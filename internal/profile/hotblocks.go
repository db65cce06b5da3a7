package profile

import (
	"fmt"
	"sort"

	"repro/internal/analysis"
	"repro/internal/asm"
)

// HotBlock is one basic block ranked by retired instructions.
type HotBlock struct {
	Block  int    // block id in the shared BlockMap numbering
	Leader int    // instruction index of the block leader
	Addr   uint32 // leader PC
	Len    int    // block length in instructions
	Count  uint64 // instructions retired inside the block
}

// HotBlocks ranks the program's basic blocks by exact retired
// instruction count (stats.Collector.PCCounts), descending, ties by
// address, and returns the top k. k <= 0 means all blocks with a
// nonzero count. len(pcCounts) must equal len(prog.Text).
func HotBlocks(prog *asm.Program, pcCounts []uint64, k int) ([]HotBlock, error) {
	if len(pcCounts) != len(prog.Text) {
		return nil, fmt.Errorf("profile: %d PC counts for %d instructions", len(pcCounts), len(prog.Text))
	}
	blocks := analysis.NewBlockMap(prog.Text, prog.TextBase)
	out := make([]HotBlock, 0, blocks.NumBlocks())
	for b := 0; b < blocks.NumBlocks(); b++ {
		lead, end := blocks.LeaderIndex(b), blocks.EndIndex(b)
		var count uint64
		for i := lead; i < end; i++ {
			count += pcCounts[i]
		}
		if count == 0 {
			continue
		}
		out = append(out, HotBlock{
			Block:  b,
			Leader: lead,
			Addr:   blocks.Leader(b),
			Len:    end - lead,
			Count:  count,
		})
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Count != out[j].Count {
			return out[i].Count > out[j].Count
		}
		return out[i].Addr < out[j].Addr
	})
	if k > 0 && len(out) > k {
		out = out[:k]
	}
	return out, nil
}
