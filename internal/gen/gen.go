// Package gen generates synthetic packet traces that stand in for the
// NLANR PMA traces (MRA, COS, ODU) and the local LAN trace used in the
// paper's evaluation.
//
// The original traces are no longer distributed, so each trace is replaced
// by a deterministic generator profile that reproduces the *statistical
// properties the workload metrics depend on*:
//
//   - the number of concurrent flows and the arrival rate of new flows,
//     which set the hit/miss mix a flow classifier sees;
//   - the spread of destination addresses over the routing prefix space,
//     which drives the variation in route-lookup path length (the dominant
//     source of per-packet instruction-count variation for IPv4-radix);
//   - the protocol and packet-size mixes, which set the header shapes the
//     applications parse;
//   - the paper's trace preprocessing: NLANR traces number addresses
//     sequentially from 10.0.0.1 ("to provide privacy"), and the paper
//     scrambles them afterwards to restore uniform coverage of the
//     routing table. Both transformations are implemented.
//
// Generation is fully deterministic for a given profile, so every
// experiment in this repository is reproducible bit for bit.
package gen

import (
	"fmt"
	"io"
	"math"
	"math/rand"

	"repro/internal/packet"
	"repro/internal/trace"
)

// SizePoint is one mode of a packet-size distribution.
type SizePoint struct {
	Bytes  int     // IP total length
	Weight float64 // relative probability mass
}

// Profile parameterizes a synthetic trace.
type Profile struct {
	Name string
	// Link describes the capture link for Table I (for example
	// "OC-12c (PoS)").
	Link string
	// Packets is the nominal trace length from Table I of the paper;
	// generators can produce any number of packets, this records the
	// original trace size for reporting.
	Packets int
	// Flows is the steady-state number of concurrent flows.
	Flows int
	// NewFlowProb is the per-packet probability of starting a previously
	// unseen flow (the flow-table miss rate seen by classification).
	NewFlowProb float64
	// TCP, UDP and ICMP weights of the protocol mix; they need not sum to
	// one, only their ratio matters.
	TCP, UDP, ICMP float64
	// Sizes is the packet-size distribution.
	Sizes []SizePoint
	// AddrBits bounds the diversity of generated addresses: hosts are
	// drawn from 2^AddrBits distinct values spread over the unicast
	// space. Backbone traces use larger values than the LAN trace.
	AddrBits int
	// OptionProb is the probability a packet carries IP options (IHL 6
	// or 7). Note the TSH trace format cannot represent options; keep
	// this zero for traces destined for .tsh files.
	OptionProb float64
	// FragProb is the probability a packet is a fragment (more-fragments
	// set or a nonzero fragment offset).
	FragProb float64
	// TTLExpireProb is the probability a packet arrives with TTL 1, the
	// case a forwarding application must hand to the slow path.
	TTLExpireProb float64

	// The fields below model data-centre traffic (heavy-tailed flow
	// sizes, incast, rack-level skew) after "Traffic Generation for
	// Benchmarking Data Centre Networks". They are all off (zero) in the
	// paper's four profiles; leaving them zero keeps generation
	// bit-identical to earlier versions of this package.

	// FlowPackets, when > 0, gives every flow a finite lifetime drawn
	// from a bounded Pareto distribution with this mean: most flows are
	// mice, a heavy tail of elephants carries most bytes. A flow is
	// retired (and replaced) once it has sent its budget.
	FlowPackets int
	// FlowAlpha is the Pareto tail index for flow lifetimes; values near
	// 1 make elephants extreme. Only read when FlowPackets > 0; <= 1
	// defaults to 1.5.
	FlowAlpha float64
	// IncastProb, when > 0, is the per-new-flow probability of opening an
	// incast epoch: the next IncastFanIn new flows all converge on the
	// epoch's victim destination (the many-to-one pattern of partition/
	// aggregate workloads).
	IncastProb float64
	// IncastFanIn is the number of converging flows per incast epoch.
	IncastFanIn int
	// HotRackProb, when > 0, is the probability a new flow's destination
	// is drawn from one of HotRacks hot /24 "racks" instead of the whole
	// address population, modelling rack-level destination skew.
	HotRackProb float64
	// HotRacks is the number of hot /24 prefixes.
	HotRacks int

	// Seed makes the trace deterministic.
	Seed int64
}

// The four trace profiles from Table I of the paper.
var profiles = []Profile{
	{
		Name: "MRA", Link: "OC-12c (PoS)", Packets: 4643333,
		Flows: 2500, NewFlowProb: 0.06,
		TCP: 0.88, UDP: 0.10, ICMP: 0.02,
		Sizes:    []SizePoint{{40, 0.45}, {576, 0.25}, {1500, 0.20}, {80, 0.10}},
		AddrBits: 24, OptionProb: 0.004, FragProb: 0.008, TTLExpireProb: 0.002,
		Seed: 0x4D5241, // "MRA"
	},
	{
		Name: "COS", Link: "OC-3c (ATM)", Packets: 2183310,
		Flows: 1500, NewFlowProb: 0.07,
		TCP: 0.85, UDP: 0.12, ICMP: 0.03,
		Sizes:    []SizePoint{{40, 0.50}, {576, 0.22}, {1500, 0.18}, {120, 0.10}},
		AddrBits: 22, OptionProb: 0.003, FragProb: 0.010, TTLExpireProb: 0.002,
		Seed: 0x434F53, // "COS"
	},
	{
		Name: "ODU", Link: "OC-3c (ATM)", Packets: 784278,
		Flows: 800, NewFlowProb: 0.08,
		TCP: 0.82, UDP: 0.14, ICMP: 0.04,
		Sizes:    []SizePoint{{40, 0.48}, {576, 0.26}, {1500, 0.16}, {200, 0.10}},
		AddrBits: 20, OptionProb: 0.005, FragProb: 0.012, TTLExpireProb: 0.003,
		Seed: 0x4F4455, // "ODU"
	},
	{
		Name: "LAN", Link: "100Mbps (Ethernet)", Packets: 100000,
		Flows: 120, NewFlowProb: 0.03,
		TCP: 0.70, UDP: 0.25, ICMP: 0.05,
		Sizes:    []SizePoint{{40, 0.30}, {576, 0.20}, {1500, 0.35}, {100, 0.15}},
		AddrBits: 12, FragProb: 0.004, TTLExpireProb: 0.001,
		Seed: 0x4C414E, // "LAN"
	},
}

// Data-centre profiles enabled by the heavy-tail/incast/hot-rack fields:
// a web-serving mix (many mice, shallow tail, strong incast) and a
// data-mining mix (extreme elephants, rack-concentrated), the two
// canonical workloads of the data-centre traffic literature.
var dcProfiles = []Profile{
	{
		Name: "DCWEB", Link: "10GbE (data centre, web)", Packets: 1000000,
		Flows: 4000, NewFlowProb: 0.10,
		TCP: 0.96, UDP: 0.04,
		Sizes:    []SizePoint{{40, 0.55}, {215, 0.20}, {1500, 0.25}},
		AddrBits: 16, TTLExpireProb: 0.0005,
		FlowPackets: 12, FlowAlpha: 1.4,
		IncastProb: 0.02, IncastFanIn: 32,
		HotRackProb: 0.25, HotRacks: 8,
		Seed: 0x444357, // "DCW"
	},
	{
		Name: "DCMINE", Link: "10GbE (data centre, mining)", Packets: 1000000,
		Flows: 1200, NewFlowProb: 0.04,
		TCP: 0.98, UDP: 0.02,
		Sizes:    []SizePoint{{40, 0.35}, {576, 0.10}, {1500, 0.55}},
		AddrBits: 16, TTLExpireProb: 0.0005,
		FlowPackets: 80, FlowAlpha: 1.1,
		IncastProb: 0.05, IncastFanIn: 64,
		HotRackProb: 0.4, HotRacks: 4,
		Seed: 0x44434D, // "DCM"
	},
}

// Profiles returns the built-in trace profiles in paper order
// (MRA, COS, ODU, LAN).
func Profiles() []Profile {
	out := make([]Profile, len(profiles))
	copy(out, profiles)
	return out
}

// DCProfiles returns the built-in data-centre profiles (DCWEB, DCMINE),
// which exercise the heavy-tail, incast and hot-rack extensions.
func DCProfiles() []Profile {
	out := make([]Profile, len(dcProfiles))
	copy(out, dcProfiles)
	return out
}

// AllProfiles returns every built-in profile: the paper's four traces
// followed by the data-centre profiles.
func AllProfiles() []Profile {
	return append(Profiles(), DCProfiles()...)
}

// ProfileByName looks up a built-in profile, case sensitively.
func ProfileByName(name string) (Profile, error) {
	for _, p := range AllProfiles() {
		if p.Name == name {
			return p, nil
		}
	}
	return Profile{}, fmt.Errorf("gen: unknown trace profile %q", name)
}

// flowState is one active synthetic flow.
type flowState struct {
	tuple packet.FiveTuple
	size  int // preferred packet size for the flow
	// remaining is the flow's packet budget under heavy-tailed lifetimes
	// (Profile.FlowPackets > 0); 0 means no budget is tracked.
	remaining int
}

// Generator produces an endless synthetic packet stream for a profile.
//
// Determinism contract: for a profile with the data-centre fields zero,
// the stream is bit-identical to what earlier versions of this package
// produced — every new random draw below is gated behind a feature being
// enabled, so the legacy draw sequence is untouched (pinned by the
// fingerprint test).
type Generator struct {
	prof Profile
	// rng makes every draw but the payload bytes, which buildPacket takes
	// straight from src, the source rng wraps; both read one state.
	rng *rand.Rand
	src *rngSource
	// slab is the unused tail of the chunk packet bytes are carved from.
	slab []byte
	// opts holds the option words buildPacket copies into a packet.
	opts  [8]byte
	flows []flowState
	sec   uint32
	usec  uint32
	// cumulative size weights for sampling
	sizeCum []float64
	sizeTot float64
	// incast epoch state: the next incastLeft new flows target incastDst.
	incastLeft int
	incastDst  uint32
}

// NewGenerator creates a generator in its deterministic start state.
func NewGenerator(p Profile) *Generator {
	if p.Flows <= 0 {
		p.Flows = 1
	}
	if p.AddrBits <= 0 || p.AddrBits > 32 {
		p.AddrBits = 24
	}
	if len(p.Sizes) == 0 {
		p.Sizes = []SizePoint{{40, 1}}
	}
	src := new(rngSource)
	src.Seed(p.Seed)
	g := &Generator{
		prof: p,
		rng:  rand.New(src),
		src:  src,
		sec:  1_000_000_000,
	}
	for _, s := range p.Sizes {
		g.sizeTot += s.Weight
		g.sizeCum = append(g.sizeCum, g.sizeTot)
	}
	g.flows = make([]flowState, 0, p.Flows)
	for i := 0; i < p.Flows; i++ {
		g.flows = append(g.flows, g.newFlow())
	}
	return g
}

// hostAddr draws a host address from the profile's address population,
// spread over the unicast space (avoiding 0.x and 127.x style edge
// prefixes so generated packets look like transit traffic).
func (g *Generator) hostAddr() uint32 {
	bits := uint(g.prof.AddrBits)
	v := uint32(g.rng.Int63()) & (1<<bits - 1)
	// Spread the population over the address space with an affine map
	// into [16.0.0.0, 224.0.0.0) and a bijective mix within the low bits.
	v = v*2654435761 + 0x9E3779B9 // Knuth multiplicative mix (odd, bijective)
	v &= 1<<bits - 1
	base := uint32(16) << 24
	span := uint32(208) << 24 // up to 224.0.0.0
	// Place the population deterministically: index*stride keeps distinct
	// values distinct when stride is odd relative to the span.
	a := base + uint32(uint64(v)*uint64(span)/uint64(uint32(1)<<bits))
	if a>>24 == 127 {
		a += 1 << 24 // skip loopback; routers drop 127/8 sources
	}
	return a
}

func (g *Generator) pickProtocol() uint8 {
	t := g.prof.TCP + g.prof.UDP + g.prof.ICMP
	r := g.rng.Float64() * t
	switch {
	case r < g.prof.TCP:
		return packet.ProtoTCP
	case r < g.prof.TCP+g.prof.UDP:
		return packet.ProtoUDP
	}
	return packet.ProtoICMP
}

func (g *Generator) pickSize() int {
	r := g.rng.Float64() * g.sizeTot
	for i, c := range g.sizeCum {
		if r < c {
			return g.prof.Sizes[i].Bytes
		}
	}
	return g.prof.Sizes[len(g.prof.Sizes)-1].Bytes
}

func (g *Generator) newFlow() flowState {
	proto := g.pickProtocol()
	ft := packet.FiveTuple{
		Src:      g.hostAddr(),
		Dst:      g.hostAddr(),
		Protocol: proto,
	}
	// Data-centre destination skew, applied over the already-drawn Dst so
	// the legacy draw sequence is preserved when the features are off.
	if g.prof.HotRackProb > 0 && g.prof.HotRacks > 0 && g.rng.Float64() < g.prof.HotRackProb {
		ft.Dst = g.hotRackAddr()
	}
	if g.prof.IncastProb > 0 && g.prof.IncastFanIn > 1 {
		if g.incastLeft > 0 {
			ft.Dst = g.incastDst
			g.incastLeft--
		} else if g.rng.Float64() < g.prof.IncastProb {
			// This flow's destination becomes the epoch victim for the
			// next fan-in worth of new flows.
			g.incastDst = ft.Dst
			g.incastLeft = g.prof.IncastFanIn - 1
		}
	}
	if proto == packet.ProtoTCP || proto == packet.ProtoUDP {
		ft.SrcPort = uint16(1024 + g.rng.Intn(64512))
		ft.DstPort = wellKnownPorts[g.rng.Intn(len(wellKnownPorts))]
	}
	fs := flowState{tuple: ft, size: g.pickSize()}
	if g.prof.FlowPackets > 0 {
		fs.remaining = g.paretoFlowLen()
	}
	return fs
}

// hotRackAddr draws a host inside one of the profile's hot /24 racks.
// Rack prefixes are a deterministic function of the rack index, spread
// over the same unicast range as hostAddr.
func (g *Generator) hotRackAddr() uint32 {
	rack := uint32(g.rng.Intn(g.prof.HotRacks))
	v := rack*2654435761 + 0x9E3779B9
	span := uint32(208) << 24
	base := uint32(16)<<24 + uint32(uint64(v)%uint64(span))
	base &^= 0xFF // align to the rack's /24
	if base>>24 == 127 {
		base += 1 << 24
	}
	return base | uint32(g.rng.Intn(256))
}

// paretoFlowLen samples a flow lifetime in packets from a bounded Pareto
// distribution with mean Profile.FlowPackets and tail index FlowAlpha:
// x = xmin / u^(1/alpha) with xmin = mean*(alpha-1)/alpha, capped so a
// single elephant cannot monopolize the whole trace.
func (g *Generator) paretoFlowLen() int {
	alpha := g.prof.FlowAlpha
	if alpha <= 1 {
		alpha = 1.5
	}
	mean := float64(g.prof.FlowPackets)
	xmin := mean * (alpha - 1) / alpha
	if xmin < 1 {
		xmin = 1
	}
	u := g.rng.Float64()
	if u < 1e-9 {
		u = 1e-9
	}
	x := xmin / math.Pow(u, 1/alpha)
	if x > 1<<20 {
		x = 1 << 20
	}
	if x < 1 {
		x = 1
	}
	return int(x)
}

var wellKnownPorts = []uint16{80, 443, 25, 53, 110, 143, 22, 21, 123, 8080}

// Next generates the next packet.
func (g *Generator) Next() *trace.Packet {
	p := new(trace.Packet)
	g.next(p, nil)
	return p
}

// next generates the next packet into p, its bytes cut from buf when
// buf holds them and from the generator's chunks otherwise, and returns
// the packet's addresses as generated. With p nil it makes the same
// draws and writes nothing (see buildPacket).
func (g *Generator) next(p *trace.Packet, buf []byte) (src, dst uint32) {
	var fl flowState
	reused := -1
	if g.rng.Float64() < g.prof.NewFlowProb {
		fl = g.newFlow()
		// Replace a random existing flow so the active set stays bounded,
		// mimicking flow expiry.
		g.flows[g.rng.Intn(len(g.flows))] = fl
	} else {
		// Zipf-like skew: cube the uniform variate so low-index flows
		// (the heavy hitters) receive most packets and the bulk of the
		// trace revisits a modest working set, as real backbone traffic
		// does.
		u := g.rng.Float64()
		idx := int(u * u * u * float64(len(g.flows)))
		if idx >= len(g.flows) {
			idx = len(g.flows) - 1
		}
		fl = g.flows[idx]
		reused = idx
	}
	// Heavy-tailed lifetimes: spend one packet of the flow's budget and
	// retire it once exhausted, so flow sizes follow the Pareto draw
	// rather than the geometric implied by random replacement.
	if g.prof.FlowPackets > 0 && reused >= 0 {
		g.flows[reused].remaining--
		if g.flows[reused].remaining <= 0 {
			g.flows[reused] = g.newFlow()
		}
	}

	size := fl.size
	// Interleave small control packets (pure acks) into TCP flows.
	if fl.tuple.Protocol == packet.ProtoTCP && g.rng.Float64() < 0.3 {
		size = 40
	}
	if size < minPacketLen(fl.tuple.Protocol) {
		size = minPacketLen(fl.tuple.Protocol)
	}

	data := g.buildPacket(fl.tuple, size, buf, p != nil)

	// Advance the clock by an exponential-ish inter-arrival time.
	g.usec += uint32(1 + g.rng.Intn(200))
	if g.usec >= 1_000_000 {
		g.usec -= 1_000_000
		g.sec++
	}
	if p != nil {
		*p = trace.Packet{Sec: g.sec, Usec: g.usec, Data: data, WireLen: len(data)}
	}
	return fl.tuple.Src, fl.tuple.Dst
}

func minPacketLen(proto uint8) int {
	switch proto {
	case packet.ProtoTCP:
		return packet.IPv4HeaderLen + packet.TCPHeaderLen
	case packet.ProtoUDP:
		return packet.IPv4HeaderLen + packet.UDPHeaderLen
	}
	return packet.IPv4HeaderLen + 8 // ICMP echo header
}

// buildPacket serializes one packet for the flow with valid checksums and
// plausible header fields, injecting the profile's rare cases (options,
// fragments, expiring TTL) that exercise the applications' slow paths.
// The bytes are cut from buf when it is long enough, else from the
// generator's chunks; every byte is written either way. With write
// unset it makes the same draws but steps the source over the payload
// and returns nil, writing no byte, header or checksum.
func (g *Generator) buildPacket(ft packet.FiveTuple, size int, buf []byte, write bool) []byte {
	h := packet.IPv4Header{
		Version: 4, IHL: 5,
		TOS:      0,
		TotalLen: uint16(size),
		ID:       uint16(g.rng.Intn(65536)),
		TTL:      uint8(32 + g.rng.Intn(224)),
		Protocol: ft.Protocol,
		Src:      ft.Src,
		Dst:      ft.Dst,
	}
	if g.rng.Float64() < g.prof.TTLExpireProb {
		h.TTL = 1
	}
	if g.rng.Float64() < g.prof.FragProb {
		if g.rng.Intn(2) == 0 {
			h.Flags |= 1 // more fragments
		} else {
			h.FragOff = uint16(1 + g.rng.Intn(512))
		}
	}
	if g.rng.Float64() < g.prof.OptionProb {
		// One or two words of NOP options terminated by end-of-list.
		words := 1 + g.rng.Intn(2)
		h.IHL = uint8(5 + words)
		h.Options = g.opts[:words*4]
		for i := range h.Options {
			h.Options[i] = 1 // NOP
		}
		h.Options[len(h.Options)-1] = 0 // EOL
		size += words * 4
		h.TotalLen = uint16(size)
	}
	var b []byte
	if !write {
		g.src.skip(size)
	} else {
		if size <= len(buf) {
			b = buf[:size:size]
		} else {
			b = trace.Carve(&g.slab, size, slabChunk)
		}
		// Fill the payload with deterministic pseudo-random bytes so
		// payload processing applications have real content to chew on;
		// the header fields are overwritten below. Each byte is the draw
		// byte(Intn(256)) would make (see fillBytes).
		g.src.fillBytes(b)
	}
	var seq, ack uint32
	if ft.Protocol == packet.ProtoTCP {
		seq = g.rng.Uint32()
		ack = g.rng.Uint32()
	}
	if !write {
		return nil
	}
	h.MarshalInto(b)
	l4 := b[h.HeaderLen():]
	switch ft.Protocol {
	case packet.ProtoTCP:
		th := packet.TCPHeader{
			SrcPort: ft.SrcPort, DstPort: ft.DstPort,
			Seq: seq, Ack: ack,
			DataOff: 5, Flags: 0x10, Window: 65535,
		}
		th.MarshalInto(l4)
	case packet.ProtoUDP:
		uh := packet.UDPHeader{
			SrcPort: ft.SrcPort, DstPort: ft.DstPort,
			Length: uint16(size - packet.IPv4HeaderLen),
		}
		uh.MarshalInto(l4)
	case packet.ProtoICMP:
		l4[0] = 8 // echo request
		l4[1] = 0 // code
	}
	return b
}

const (
	// slabChunk is the size of the chunks packet bytes are carved from.
	slabChunk = 64 << 10
	// packetChunk is the number of Packets in the chunks a Reader
	// carves them from.
	packetChunk = 256
)

// Generate produces n packets from the profile, the same packets n calls
// of Next would return, stored in one backing array.
func Generate(p Profile, n int) []*trace.Packet {
	g := NewGenerator(p)
	pkts := make([]trace.Packet, n)
	out := make([]*trace.Packet, n)
	for i := range out {
		g.next(&pkts[i], nil)
		out[i] = &pkts[i]
	}
	return out
}

// Reader streams the packets Generate returns, rewritten as
// RenumberNLANR and then ScrambleAddrs would rewrite the whole slice,
// without holding the trace: it keeps only the renumbering map, which
// grows with the distinct addresses, not the packets. It implements
// trace.Reader, and trace.Positioned in packets.
//
// Next and NextInto write every byte of a packet; NextDst makes the
// same draws and writes none, giving only the packet's destination.
// All three advance one stream and may be mixed.
type Reader struct {
	g        *Generator
	n, next  int
	rewrites []func(uint32) uint32 // applied to each packet's addresses in order
	pkts     []trace.Packet        // the unused tail of the chunk Packets are carved from
}

// NewReader returns a reader of the first n packets of p's trace,
// renumbered and then scrambled as asked.
func NewReader(p Profile, n int, renumber, scramble bool) *Reader {
	r := &Reader{g: NewGenerator(p), n: n}
	if renumber {
		r.rewrites = append(r.rewrites, renumberer())
	}
	if scramble {
		r.rewrites = append(r.rewrites, ScrambleAddr)
	}
	return r
}

// Next implements trace.Reader.
func (r *Reader) Next() (*trace.Packet, error) {
	if r.next >= r.n {
		return nil, io.EOF
	}
	p := &trace.Carve(&r.pkts, 1, packetChunk)[0]
	r.read(p, nil)
	return p, nil
}

// NextInto is Next into the caller's p, with the packet's bytes cut
// from buf, so a packet that fits buf allocates nothing (64 KiB fits any
// IPv4 packet). The bytes stay valid until buf is written again; a
// packet longer than buf is cut from the reader's chunks, as Next cuts
// it. NextInto and Next advance one stream and may be mixed.
func (r *Reader) NextInto(p *trace.Packet, buf []byte) error {
	if r.next >= r.n {
		return io.EOF
	}
	r.read(p, buf)
	return nil
}

// NextDst advances the stream by one packet, as Next does, and returns
// only the packet's destination, rewritten as Next would rewrite it. It
// steps the source over the payload and writes no byte, header or
// checksum, so it allocates nothing and costs a fraction of NextInto.
func (r *Reader) NextDst() (uint32, error) {
	if r.next >= r.n {
		return 0, io.EOF
	}
	r.next++
	src, dst := r.g.next(nil, nil)
	_, dst = mapAddrs(src, dst, r.rewrites)
	return dst, nil
}

// read generates the next packet into p and rewrites its addresses.
func (r *Reader) read(p *trace.Packet, buf []byte) {
	r.next++
	r.g.next(p, buf)
	if len(r.rewrites) > 0 {
		rewriteAddrs(p, r.rewrites...)
	}
}

// Pos implements trace.Positioned; the unit is packets.
func (r *Reader) Pos() int64 { return int64(r.next) }

// Total implements trace.Positioned; the unit is packets.
func (r *Reader) Total() int64 { return int64(max(r.n, 0)) }

// RenumberNLANR applies the NLANR privacy renumbering the paper describes:
// every distinct address is replaced by sequential addresses starting at
// 10.0.0.1 in order of first occurrence. The result is the biased address
// distribution the paper observed ("lookups ... lead almost always to the
// same prefix"), which ScrambleAddrs then corrects. Checksums are
// recomputed. The packets are modified in place.
func RenumberNLANR(pkts []*trace.Packet) {
	renumber := renumberer()
	for _, p := range pkts {
		rewriteAddrs(p, renumber)
	}
}

// renumberer returns a fresh RenumberNLANR address map.
func renumberer() func(uint32) uint32 {
	next := uint32(0x0A000001) // 10.0.0.1
	seen := make(map[uint32]uint32)
	return func(a uint32) uint32 {
		if m, ok := seen[a]; ok {
			return m
		}
		m := next
		next++
		seen[a] = m
		return m
	}
}

// ScrambleAddrs applies the paper's preprocessing fix: a deterministic
// bijective scramble of every IP address so that destination coverage of
// the routing table becomes approximately uniform. Checksums are
// recomputed. The packets are modified in place.
func ScrambleAddrs(pkts []*trace.Packet) {
	for _, p := range pkts {
		rewriteAddrs(p, ScrambleAddr)
	}
}

// ScrambleAddr is the deterministic scramble used by ScrambleAddrs: a
// bijective xorshift-multiply mix constrained to the unicast range
// [16.0.0.0, 224.0.0.0) by cycle walking, so scrambled traffic still
// looks like routable transit traffic (forwarding applications would
// otherwise discard out-of-range sources as martians). Restricted to
// unicast inputs the map is a permutation of the unicast space.
func ScrambleAddr(a uint32) uint32 {
	for {
		a ^= a >> 16
		a *= 0x7FEB352D
		a ^= a >> 15
		a *= 0x846CA68B
		a ^= a >> 16
		if top := uint8(a >> 24); top >= 16 && top < 224 && top != 127 {
			return a
		}
	}
}

// rewriteAddrs maps the src and then the dst of a packet through each
// of fs in turn, fixing the header checksum once: the bytes and the
// order of the calls are those of one rewriteAddrs per function.
// Packets that do not parse are left untouched.
func rewriteAddrs(p *trace.Packet, fs ...func(uint32) uint32) {
	h, err := packet.ParseIPv4(p.Data)
	if err != nil {
		return
	}
	h.Src, h.Dst = mapAddrs(h.Src, h.Dst, fs)
	h.MarshalInto(p.Data)
}

// mapAddrs maps src and then dst through each of fs in turn, the order
// a stateful map such as the renumbering sees them in.
func mapAddrs(src, dst uint32, fs []func(uint32) uint32) (uint32, uint32) {
	for _, f := range fs {
		src = f(src)
		dst = f(dst)
	}
	return src, dst
}
