package trace

import "sync/atomic"

// SkipBudget is a malformed-record allowance. A budget above zero caps
// how many records may be skipped; zero or below means unlimited. One
// budget may be shared by several readers, such as the shards of one
// run, and its count is safe to read from any goroutine.
type SkipBudget struct {
	limit int
	used  atomic.Int64
}

// NewSkipBudget returns a budget of limit skips (<= 0: unlimited).
func NewSkipBudget(limit int) *SkipBudget { return &SkipBudget{limit: limit} }

// Preload marks n skips as already spent, as when a resumed run restores
// the count its checkpoint recorded.
func (b *SkipBudget) Preload(n int) { b.used.Add(int64(n)) }

// Used returns how many skips were spent, preloaded ones included.
func (b *SkipBudget) Used() int { return int(b.used.Load()) }

// take spends one skip; false means the budget is exhausted. Readers
// sharing a budget run on one goroutine (a MergeReader's), so the check
// and the add need not be one atomic step.
func (b *SkipBudget) take() bool {
	if b.limit > 0 && b.used.Load() >= int64(b.limit) {
		return false
	}
	b.used.Add(1)
	return true
}

// skipState is the skip-and-resync state every trace reader embeds. The
// semantics are defined once here so they cannot drift between formats:
// skipping is off until a budget is set, and the reader skips while the
// budget allows.
type skipState struct {
	budget  *SkipBudget // nil: skipping is off
	skipped int         // records this reader skipped
}

// SetSkipMalformed switches the reader from fail-fast to skip-and-resync:
// a malformed record no longer aborts the read while b allows a skip;
// the pcap reader scans forward for the next plausible record header,
// and the TSH reader, which then also checks each record's IPv4 header
// (version nibble, header length, total length), moves to the next
// record. Once b is spent, the next malformed record is returned as a
// *MalformedRecordError. Other readers may share b.
func (s *skipState) SetSkipMalformed(b *SkipBudget) { s.budget = b }

// consumeSkip takes one unit of skip budget; false means the policy (or
// budget) requires the malformed record to be surfaced as an error.
func (s *skipState) consumeSkip() bool {
	if s.budget == nil || !s.budget.take() {
		return false
	}
	s.skipped++
	return true
}

// Skipped returns how many malformed records this reader skipped so far.
func (s *skipState) Skipped() int { return s.skipped }

// Skipped returns how many malformed records r skipped before the
// position its PosState reports, 0 for a reader that counts none. A run
// resumed from that position re-reads, and skips again, only records
// this count leaves out, so it is the count a checkpoint stores.
func Skipped(r Reader) int {
	if sk, ok := r.(interface{ Skipped() int }); ok {
		return sk.Skipped()
	}
	return 0
}
