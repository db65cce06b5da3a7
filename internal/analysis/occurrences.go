package analysis

import "sort"

// Occurrence is one row of an occurrence table: a value (for example an
// instruction count) and how many packets exhibited it.
type Occurrence struct {
	Value uint64
	Count int
}

// Pct returns the occurrence's share of the given total as a percentage.
func (o Occurrence) Pct(total int) float64 {
	if total == 0 {
		return 0
	}
	return 100 * float64(o.Count) / float64(total)
}

// OccurrenceTable summarizes the distribution of a per-packet metric in
// the shape of the paper's Tables V and VI: the most frequent values, the
// extremes with their frequencies, and the mean.
type OccurrenceTable struct {
	Total int          // number of samples
	Top   []Occurrence // most frequent values, descending by count
	Min   Occurrence   // smallest value and its frequency
	Max   Occurrence   // largest value and its frequency
	Mean  float64
}

// Occurrences builds an occurrence table keeping the topK most frequent
// values. Ties in frequency break toward the smaller value, keeping the
// output deterministic.
func Occurrences(values []uint64, topK int) OccurrenceTable {
	counts := make(map[uint64]int)
	for _, v := range values {
		counts[v]++
	}
	return OccurrencesOf(counts, topK)
}

// OccurrencesOf is Occurrences over a histogram of the values: counts[v]
// samples took value v.
func OccurrencesOf(counts map[uint64]int, topK int) OccurrenceTable {
	var t OccurrenceTable
	if len(counts) == 0 {
		return t
	}
	var sum float64
	all := make([]Occurrence, 0, len(counts))
	for v, c := range counts {
		t.Total += c
		sum += float64(v) * float64(c)
		all = append(all, Occurrence{Value: v, Count: c})
	}
	t.Mean = sum / float64(t.Total)
	t.Min, t.Max = all[0], all[0]
	for _, o := range all {
		if o.Value < t.Min.Value {
			t.Min = o
		}
		if o.Value > t.Max.Value {
			t.Max = o
		}
	}
	sort.Slice(all, func(i, j int) bool {
		if all[i].Count != all[j].Count {
			return all[i].Count > all[j].Count
		}
		return all[i].Value < all[j].Value
	})
	if topK > len(all) {
		topK = len(all)
	}
	t.Top = all[:topK]
	return t
}

// TopPct returns the combined percentage of the top occurrences, the
// "total percentages for the three most common occurrences are close to
// 90%" observation the paper makes about Table V.
func (t OccurrenceTable) TopPct() float64 {
	var p float64
	for _, o := range t.Top {
		p += o.Pct(t.Total)
	}
	return p
}

// InstructionPattern assigns each executed instruction its unique-index in
// first-execution order, producing the y-values of Figure 6 (the x-value
// is the position in the sequence). Repeated instructions (loops) revisit
// lower indices, which is what makes loops visible as overlaps in the
// plot.
func InstructionPattern(pcs []uint32) []int {
	idx := make(map[uint32]int)
	out := make([]int, len(pcs))
	for i, pc := range pcs {
		id, ok := idx[pc]
		if !ok {
			id = len(idx)
			idx[pc] = id
		}
		out[i] = id
	}
	return out
}

// UniqueCount returns the number of distinct values in pcs (the paper's
// "unique instructions" metric of Table VI).
func UniqueCount(pcs []uint32) int {
	seen := make(map[uint32]struct{}, len(pcs))
	for _, pc := range pcs {
		seen[pc] = struct{}{}
	}
	return len(seen)
}

// RepetitionFactor is total executed instructions divided by unique
// instructions — the paper observes a factor of about four for IPv4-radix
// and TSA and near one for IPv4-trie and Flow Classification.
func RepetitionFactor(total uint64, unique int) float64 {
	if unique == 0 {
		return 0
	}
	return float64(total) / float64(unique)
}
