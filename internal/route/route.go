// Package route implements the routing-table substrate for the IPv4
// forwarding applications: a BSD-style binary radix tree (used by
// IPv4-radix) and a level/path-compressed LC-trie after Nilsson and
// Karlsson (used by IPv4-trie), together with a synthetic prefix-table
// generator patterned on the MAE-WEST snapshot the paper uses.
//
// Each structure exists in two coupled forms:
//
//   - a native Go form with Lookup methods, used as the correctness oracle
//     and as the baseline in differential tests; and
//   - a serialized form (Serialize) that lays the exact same structure out
//     in simulated memory for the PB32 assembly applications to traverse.
//     The byte layouts are part of the contract with internal/apps and are
//     documented on the Serialize methods.
//
// Lookups implement longest-prefix match. Next hops are small positive
// integers (output port numbers); 0 is reserved for "no route".
package route

import (
	"bufio"
	"cmp"
	"fmt"
	"io"
	"math/rand"
	"net/netip"
	"slices"
	"strconv"
	"strings"
)

// Entry is one routing-table entry. Prefix is left-aligned: the top Len
// bits are significant and the rest must be zero.
type Entry struct {
	Prefix  uint32
	Len     int
	NextHop uint32
}

// Mask returns the netmask implied by the entry's length.
func Mask(length int) uint32 {
	if length <= 0 {
		return 0
	}
	if length >= 32 {
		return ^uint32(0)
	}
	return ^uint32(0) << (32 - uint(length))
}

// Matches reports whether addr falls inside the entry's prefix.
func (e Entry) Matches(addr uint32) bool {
	return (addr^e.Prefix)&Mask(e.Len) == 0
}

// String renders the entry in "a.b.c.d/len -> hop" form.
func (e Entry) String() string {
	return fmt.Sprintf("%d.%d.%d.%d/%d -> %d",
		e.Prefix>>24, e.Prefix>>16&0xFF, e.Prefix>>8&0xFF, e.Prefix&0xFF, e.Len, e.NextHop)
}

// Table is a plain prefix list, the neutral source form both lookup
// structures are built from.
type Table struct {
	Entries []Entry
}

// LookupLinear performs longest-prefix match by exhaustive scan. It is the
// oracle the tree structures are differentially tested against.
func (t *Table) LookupLinear(addr uint32) (uint32, bool) {
	best := -1
	var hop uint32
	for _, e := range t.Entries {
		if e.Matches(addr) && e.Len > best {
			best = e.Len
			hop = e.NextHop
		}
	}
	return hop, best >= 0
}

// Add appends an entry after normalizing the prefix (masking off bits
// beyond the length).
func (t *Table) Add(prefix uint32, length int, nexthop uint32) error {
	if length < 0 || length > 32 {
		return fmt.Errorf("route: invalid prefix length %d", length)
	}
	if nexthop == 0 {
		return fmt.Errorf("route: next hop 0 is reserved")
	}
	t.Entries = append(t.Entries, Entry{Prefix: prefix & Mask(length), Len: length, NextHop: nexthop})
	return nil
}

// Dedup removes duplicate (prefix, len) pairs, keeping the last
// occurrence, and sorts the table.
func (t *Table) Dedup() {
	slices.SortStableFunc(t.Entries, func(a, b Entry) int {
		if c := cmp.Compare(a.Prefix, b.Prefix); c != 0 {
			return c
		}
		return cmp.Compare(a.Len, b.Len)
	})
	out := t.Entries[:0]
	for _, e := range t.Entries {
		if n := len(out); n > 0 && out[n-1].Prefix == e.Prefix && out[n-1].Len == e.Len {
			out[n-1] = e
			continue
		}
		out = append(out, e)
	}
	t.Entries = out
}

// GenOptions parameterizes synthetic table generation.
type GenOptions struct {
	// Prefixes is the number of entries to generate.
	Prefixes int
	// NextHops is the number of distinct output ports (next hops are drawn
	// from 1..NextHops).
	NextHops int
	// Seed makes generation deterministic.
	Seed int64
	// IncludeDefault adds a 0.0.0.0/0 entry so every lookup succeeds.
	IncludeDefault bool
}

// lengthDist is the prefix-length mix of a MAE-WEST-style backbone table:
// dominated by /24s, with meaningful /16 and /19-/23 populations.
var lengthDist = []struct {
	length int
	weight int
}{
	{8, 2}, {13, 1}, {14, 2}, {15, 2}, {16, 18},
	{17, 3}, {18, 4}, {19, 7}, {20, 6}, {21, 6},
	{22, 7}, {23, 8}, {24, 60}, {25, 1}, {26, 1},
	{27, 1}, {28, 1}, {30, 1}, {32, 1},
}

// GenerateTable builds a deterministic synthetic routing table with a
// realistic prefix-length distribution.
func GenerateTable(opts GenOptions) *Table {
	if opts.Prefixes <= 0 {
		opts.Prefixes = 1000
	}
	tt := NewTrafficTable(opts.Prefixes, opts.NextHops, opts.Seed)
	if opts.IncludeDefault {
		tt.t.Entries = append(tt.t.Entries, Entry{Prefix: 0, Len: 0, NextHop: uint32(tt.nextHops)})
	}
	for len(tt.t.Entries) < opts.Prefixes {
		length := tt.drawLength()
		// Draw a prefix in unicast space (16.0.0.0 - 223.255.255.255).
		tt.add(uint32(16+tt.rng.Intn(208))<<24|uint32(tt.rng.Int63())&0x00FFFFFF, length)
	}
	return tt.Table()
}

// TableFromTraffic derives a routing table from observed destination
// addresses, the way a provider's table covers the destinations its
// customers actually reach. Each sampled destination contributes a
// prefix whose length is drawn from the backbone length distribution, so
// lookups on the same traffic find deep longest matches — the "uniform
// coverage of the routing table" the paper's address scrambling is there
// to produce. Generation is deterministic for a given seed.
func TableFromTraffic(dsts []uint32, maxPrefixes int, nextHops int, seed int64) *Table {
	tt := NewTrafficTable(maxPrefixes, nextHops, seed)
	for _, dst := range dsts {
		if tt.Add(dst) {
			break
		}
	}
	return tt.Table()
}

// TrafficTable is TableFromTraffic fed one destination at a time, so a
// caller streaming a trace keeps no per-packet state.
type TrafficTable struct {
	max, nextHops int
	rng           *rand.Rand
	seen          map[uint64]bool
	t             Table
}

// NewTrafficTable starts a table of at most maxPrefixes entries (<= 0:
// unlimited), with next hops drawn from 1..nextHops (default 16).
func NewTrafficTable(maxPrefixes int, nextHops int, seed int64) *TrafficTable {
	if nextHops <= 0 {
		nextHops = 16
	}
	return &TrafficTable{max: maxPrefixes, nextHops: nextHops, rng: rand.New(rand.NewSource(seed)),
		seen: make(map[uint64]bool, max(maxPrefixes, 0))}
}

// Add derives a prefix from dst and reports whether the table is full;
// a full table ignores further destinations.
func (tt *TrafficTable) Add(dst uint32) (full bool) {
	if tt.max <= 0 || len(tt.t.Entries) < tt.max {
		tt.add(dst, tt.drawLength())
	}
	return tt.max > 0 && len(tt.t.Entries) >= tt.max
}

// drawLength draws a prefix length from lengthDist.
func (tt *TrafficTable) drawLength() int {
	total := 0
	for _, d := range lengthDist {
		total += d.weight
	}
	r := tt.rng.Intn(total)
	for _, d := range lengthDist {
		if r < d.weight {
			return d.length
		}
		r -= d.weight
	}
	return 24
}

// add enters addr's prefix of the given length, with a drawn next hop,
// unless the table holds it already.
func (tt *TrafficTable) add(addr uint32, length int) {
	prefix := addr & Mask(length)
	key := uint64(prefix)<<6 | uint64(length)
	if tt.seen[key] {
		return
	}
	tt.seen[key] = true
	tt.t.Entries = append(tt.t.Entries, Entry{Prefix: prefix, Len: length, NextHop: uint32(1 + tt.rng.Intn(tt.nextHops))})
}

// Table deduplicates and returns the table; call it after the last Add.
func (tt *TrafficTable) Table() *Table {
	tt.t.Dedup()
	return &tt.t
}

// ParseTable reads a routing table in the simple text form
//
//	# comment
//	a.b.c.d/len nexthop
//
// one entry per line, so real table snapshots (e.g. MAE-WEST dumps
// converted to this form) can be dropped into the tools.
func ParseTable(r io.Reader) (*Table, error) {
	t := &Table{}
	sc := bufio.NewScanner(r)
	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		fields := strings.Fields(line)
		if len(fields) != 2 {
			return nil, fmt.Errorf("route: line %d: want \"prefix/len nexthop\", got %q", lineNo, line)
		}
		slash := strings.IndexByte(fields[0], '/')
		if slash < 0 {
			return nil, fmt.Errorf("route: line %d: missing /len in %q", lineNo, fields[0])
		}
		addr, err := netip.ParseAddr(fields[0][:slash])
		if err != nil || !addr.Is4() {
			return nil, fmt.Errorf("route: line %d: bad IPv4 address %q", lineNo, fields[0][:slash])
		}
		length, err := strconv.Atoi(fields[0][slash+1:])
		if err != nil {
			return nil, fmt.Errorf("route: line %d: bad prefix length %q", lineNo, fields[0][slash+1:])
		}
		hop, err := strconv.ParseUint(fields[1], 10, 32)
		if err != nil {
			return nil, fmt.Errorf("route: line %d: bad next hop %q", lineNo, fields[1])
		}
		a4 := addr.As4()
		prefix := uint32(a4[0])<<24 | uint32(a4[1])<<16 | uint32(a4[2])<<8 | uint32(a4[3])
		if err := t.Add(prefix, length, uint32(hop)); err != nil {
			return nil, fmt.Errorf("route: line %d: %w", lineNo, err)
		}
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	t.Dedup()
	return t, nil
}

// WriteTable renders the table in the format ParseTable reads.
func (t *Table) WriteTable(w io.Writer) error {
	for _, e := range t.Entries {
		if _, err := fmt.Fprintf(w, "%d.%d.%d.%d/%d %d\n",
			e.Prefix>>24, e.Prefix>>16&0xFF, e.Prefix>>8&0xFF, e.Prefix&0xFF,
			e.Len, e.NextHop); err != nil {
			return err
		}
	}
	return nil
}
