// Package apps provides the paper's four network processing applications
// as loadable PacketBench programs: IPv4-radix and IPv4-trie forwarding,
// Flow Classification, and TSA anonymization.
//
// Each application couples a PB32 assembly source (in src/) with a
// host-side Init hook that performs the work of the paper's uncounted
// init() call: building the routing tree, trie, hash buckets or
// anonymization tables directly in simulated memory using the serialized
// layouts defined by the substrate packages (route, flow, anon). The
// assembly then processes packets against those structures, and
// differential tests (apps_test.go) check that every observable effect —
// forwarding verdicts, TTL/checksum rewrites, flow-table contents,
// anonymized addresses — matches the native Go implementations bit for
// bit.
package apps

import (
	_ "embed"
	"encoding/binary"
	"fmt"
	"slices"
	"sync"

	"repro/internal/anon"
	"repro/internal/core"
	"repro/internal/flow"
	"repro/internal/packet"
	"repro/internal/route"
)

//go:embed src/ipv4_radix.s
var ipv4RadixSrc string

//go:embed src/ipv4_trie.s
var ipv4TrieSrc string

//go:embed src/flow.s
var flowSrc string

//go:embed src/tsa.s
var tsaSrc string

// Verdicts returned by the flow classification application.
const (
	FlowVerdictExisting = 1
	FlowVerdictNew      = 2
)

// IPv4Radix builds the IPv4-radix forwarding application over the given
// routing table. The verdict of each packet is the output port (0 =
// drop).
//
// The App builds its radix tree and serialized image on its first load
// and keeps them, as the paper's init() builds the table once: a later
// core.New of the same App copies the kept image into memory. A load
// rebuilds the tree when tbl.Entries no longer equals the copy taken at
// the last build, and re-serializes it when the heap hands the image a
// different base, so every load sees exactly what a fresh App would
// build. Loads may run concurrently.
func IPv4Radix(tbl *route.Table) *core.App {
	var m routeMemo[route.RadixTree]
	build := func(t *route.Table) (*route.RadixTree, error) { return route.NewRadixTree(t), nil }
	return &core.App{
		Name:   "IPv4-radix",
		Source: ipv4RadixSrc,
		Entry:  "process_packet",
		Init: func(ld *core.Loader) error {
			m.mu.Lock()
			defer m.mu.Unlock()
			tree, _ := m.structure(tbl, build) // building a radix tree cannot fail
			base, err := ld.Alloc(uint32(tree.Nodes())*route.RadixNodeSize, 8)
			if err != nil {
				return err
			}
			img := m.images([2]uint32{base}, func() [2][]byte {
				image, _ := tree.Serialize(base) // the root is the node at base
				return [2][]byte{image}
			})
			ld.Write(base, img[0])
			return ld.SetWord("radix_root", base)
		},
	}
}

// IPv4Trie builds the IPv4-trie forwarding application over the given
// routing table. Like IPv4Radix, the App keeps its LC-trie and images
// from the first load, rebuilding when tbl.Entries changes and
// re-serializing when the heap bases move.
func IPv4Trie(tbl *route.Table) *core.App {
	var m routeMemo[route.LCTrie]
	return &core.App{
		Name:   "IPv4-trie",
		Source: ipv4TrieSrc,
		Entry:  "process_packet",
		Init: func(ld *core.Loader) error {
			m.mu.Lock()
			defer m.mu.Unlock()
			lc, err := m.structure(tbl, route.NewLCTrie)
			if err != nil {
				return err
			}
			nodesBase, err := ld.Alloc(uint32(lc.Nodes())*4, 8)
			if err != nil {
				return err
			}
			entriesBase, err := ld.Alloc(uint32(lc.Entries())*route.LCEntrySize, 8)
			if err != nil {
				return err
			}
			img := m.images([2]uint32{nodesBase, entriesBase}, func() [2][]byte {
				nodesImg, entriesImg := lc.Serialize(nodesBase, entriesBase)
				return [2][]byte{nodesImg, entriesImg}
			})
			ld.Write(nodesBase, img[0])
			ld.Write(entriesBase, img[1])
			if err := ld.SetWord("trie_nodes", nodesBase); err != nil {
				return err
			}
			return ld.SetWord("trie_entries", entriesBase)
		},
	}
}

// routeMemo is what a forwarding App keeps between loads: the structure
// built from its table, a copy of the entries it was built from, and
// its serialized images with the bases they were laid out at. Images
// are replaced, never modified, once kept. Callers hold mu.
type routeMemo[T any] struct {
	mu      sync.Mutex
	entries []route.Entry
	built   *T
	bases   [2]uint32
	image   [2][]byte
	imaged  bool
}

// structure returns the structure built from tbl's current entries,
// building it when there is none yet or the entries changed since.
func (m *routeMemo[T]) structure(tbl *route.Table, build func(*route.Table) (*T, error)) (*T, error) {
	if m.built != nil && slices.Equal(m.entries, tbl.Entries) {
		return m.built, nil
	}
	built, err := build(tbl)
	if err != nil {
		return nil, err
	}
	m.built, m.entries, m.imaged = built, slices.Clone(tbl.Entries), false
	return built, nil
}

// images returns the current structure's images at bases, calling
// serialize when the structure is new or was laid out elsewhere.
func (m *routeMemo[T]) images(bases [2]uint32, serialize func() [2][]byte) [2][]byte {
	if !m.imaged || m.bases != bases {
		m.image, m.bases, m.imaged = serialize(), bases, true
	}
	return m.image
}

// FlowClassification builds the flow classification application with the
// given bucket count (rounded up to a power of two). Verdicts are
// FlowVerdictExisting and FlowVerdictNew.
func FlowClassification(buckets int) *core.App {
	size := 1
	for size < buckets {
		size <<= 1
	}
	return &core.App{
		Name:   "Flow Classification",
		Source: flowSrc,
		Entry:  "process_packet",
		Init: func(ld *core.Loader) error {
			bucketBase, err := ld.Alloc(uint32(size)*4, 8)
			if err != nil {
				return err
			}
			// Reserve the node heap after the bucket array; the
			// application bump-allocates from flow_heap.
			heapBase, err := ld.Alloc(0, 8)
			if err != nil {
				return err
			}
			if err := ld.SetWord("flow_buckets", bucketBase); err != nil {
				return err
			}
			if err := ld.SetWord("flow_nbuckets", uint32(size)); err != nil {
				return err
			}
			return ld.SetWord("flow_heap", heapBase)
		},
	}
}

// TSAApp builds the TSA anonymization application keyed by key.
func TSAApp(key uint64) *core.App {
	return &core.App{
		Name:   "TSA",
		Source: tsaSrc,
		Entry:  "process_packet",
		Init: func(ld *core.Loader) error {
			t := anon.NewTSA(key)
			topImg, subImg := t.SerializeTables()
			topBase, err := ld.Alloc(uint32(len(topImg)), 8)
			if err != nil {
				return err
			}
			subBase, err := ld.Alloc(uint32(len(subImg)), 8)
			if err != nil {
				return err
			}
			ld.Write(topBase, topImg)
			ld.Write(subBase, subImg)
			if err := ld.SetWord("tsa_top", topBase); err != nil {
				return err
			}
			return ld.SetWord("tsa_sub", subBase)
		},
	}
}

// All returns the paper's four applications, in the paper's order, built
// over shared default substrates: the routing table is used by both
// forwarding applications and the classifier gets the default bucket
// count.
func All(tbl *route.Table, flowBuckets int, tsaKey uint64) []*core.App {
	return []*core.App{
		IPv4Radix(tbl),
		IPv4Trie(tbl),
		FlowClassification(flowBuckets),
		TSAApp(tsaKey),
	}
}

// ReadFlowTable walks the simulated flow table of a running Flow
// Classification bench and reconstructs its contents, for differential
// comparison against the native classifier.
func ReadFlowTable(b *core.Bench) (map[packet.FiveTuple]flow.Stat, error) {
	mem := b.Memory()
	read := func(sym string) (uint32, error) {
		addr, err := b.Loader().Symbol(sym)
		if err != nil {
			return 0, err
		}
		return mem.Read32(addr), nil
	}
	buckets, err := read("flow_buckets")
	if err != nil {
		return nil, err
	}
	n, err := read("flow_nbuckets")
	if err != nil {
		return nil, err
	}
	if n == 0 || n > 1<<24 {
		return nil, fmt.Errorf("apps: implausible bucket count %d", n)
	}
	out := make(map[packet.FiveTuple]flow.Stat)
	for i := uint32(0); i < n; i++ {
		node := mem.Read32(buckets + i*4)
		for steps := 0; node != 0; steps++ {
			if steps > 1<<20 {
				return nil, fmt.Errorf("apps: flow chain in bucket %d does not terminate", i)
			}
			ft := packet.FiveTuple{
				Src:      mem.Read32(node),
				Dst:      mem.Read32(node + 4),
				Protocol: uint8(mem.Read32(node + 12)),
			}
			ports := mem.Read32(node + 8)
			ft.SrcPort = uint16(ports >> 16)
			ft.DstPort = uint16(ports)
			if _, dup := out[ft]; dup {
				return nil, fmt.Errorf("apps: duplicate flow node for %v", ft)
			}
			out[ft] = flow.Stat{
				Packets: mem.Read32(node + 16),
				Bytes:   mem.Read32(node + 20),
			}
			node = mem.Read32(node + 24)
		}
	}
	return out, nil
}

// ReadAnonymizedAddrs extracts the (src, dst) addresses from the packet
// buffer after TSA processed a packet.
func ReadAnonymizedAddrs(b *core.Bench) (src, dst uint32) {
	hdr := b.PacketBytes(packet.IPv4HeaderLen)
	return binary.BigEndian.Uint32(hdr[12:]), binary.BigEndian.Uint32(hdr[16:])
}

//go:embed src/payload_scan.s
var payloadScanSrc string

// PayloadScan builds the payload-processing extension application: scan
// every packet's payload for a 4-byte signature. Its verdict is the
// number of matches in the packet.
func PayloadScan(sig [4]byte) *core.App {
	return &core.App{
		Name:   "Payload Scan",
		Source: payloadScanSrc,
		Entry:  "process_packet",
		Init: func(ld *core.Loader) error {
			addr, err := ld.Symbol("scan_sig")
			if err != nil {
				return err
			}
			ld.Write(addr, sig[:])
			return nil
		},
	}
}

// NativePayloadScan is the reference implementation PayloadScan is
// differentially tested against: count (possibly overlapping) signature
// occurrences in the packet's payload.
func NativePayloadScan(pkt []byte, sig [4]byte) int {
	h, err := packet.ParseIPv4(pkt)
	if err != nil {
		return 0
	}
	payload := pkt[h.HeaderLen():]
	n := 0
	for i := 0; i+4 <= len(payload); i++ {
		if payload[i] == sig[0] && payload[i+1] == sig[1] &&
			payload[i+2] == sig[2] && payload[i+3] == sig[3] {
			n++
		}
	}
	return n
}

//go:embed src/frag.s
var fragSrc string

// FragOutputSize is the output-area reservation for the FRAG
// application: worst-case fragmentation of a maximum-size packet.
const FragOutputSize = 128 * 1024

// Frag builds the fragmentation application (after CommBench's FRAG
// kernel): packets above mtu are split into RFC 791 fragments written
// to an output area; the verdict is the fragment count (1 = passed
// through, 0 = dropped because don't-fragment was set).
func Frag(mtu int) *core.App {
	return &core.App{
		Name:   "Frag",
		Source: fragSrc,
		Entry:  "process_packet",
		Init: func(ld *core.Loader) error {
			out, err := ld.Alloc(FragOutputSize, 8)
			if err != nil {
				return err
			}
			if err := ld.SetWord("frag_mtu", uint32(mtu)); err != nil {
				return err
			}
			return ld.SetWord("frag_out", out)
		},
	}
}

// ReadFragments extracts the n fragments the FRAG application wrote for
// the last packet, as complete packet byte slices.
func ReadFragments(b *core.Bench, n int) ([][]byte, error) {
	addr, err := b.Loader().Symbol("frag_out")
	if err != nil {
		return nil, err
	}
	mem := b.Memory()
	cur := mem.Read32(addr)
	out := make([][]byte, 0, n)
	for i := 0; i < n; i++ {
		hdr := mem.ReadBytes(cur, packet.IPv4HeaderLen)
		h, err := packet.ParseIPv4(hdr)
		if err != nil {
			return nil, fmt.Errorf("apps: fragment %d: %w", i, err)
		}
		out = append(out, mem.ReadBytes(cur, int(h.TotalLen)))
		cur += uint32(h.TotalLen)
	}
	return out, nil
}
