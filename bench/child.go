package main

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"reflect"
	"sort"
	"time"

	"repro/internal/core"
	"repro/internal/stats"
	"repro/internal/trace"
)

// childEnv marks a child process: the benchmark binary re-executed to
// run one spec read from standard input.
const childEnv = "PBBENCH_CHILD"

// Child modes.
const (
	// modeSetup runs only the workload's set-up, for setup_s samples.
	modeSetup = "setup"
	// modeTimed runs the workload path with no per-packet timers.
	modeTimed = "timed"
	// modeTraced runs the path with per-layer timers, then the per-call
	// replay and the tier sweep.
	modeTraced = "traced"
)

// checkPackets is how many leading packets of a replay workload must
// match the reference interpreter bit for bit.
const checkPackets = 2000

// sweepPackets is the per-workload prefix the tier sweep replays.
const sweepPackets = 50_000

type childSpec struct {
	Workload string  `json:"workload"`
	Mode     string  `json:"mode"`
	Dir      string  `json:"dir"`
	Workers  int     `json:"workers"`
	Scale    float64 `json:"scale"`
	Expect   string  `json:"expect"`
}

type childResult struct {
	SetupS    float64 `json:"setup_s"`
	RunS      float64 `json:"run_s"`
	Attempted int     `json:"attempted"`
	Failed    int     `json:"failed"`
	Mallocs   uint64  `json:"mallocs"`
	PeakRSSMB float64 `json:"peak_rss_mb"`
	// Digest fingerprints the run's output; every rep of a workload and
	// seed must produce the same one.
	Digest string `json:"digest"`
	// CheckErr is set when the run or an output check failed; the rep
	// then counts every packet as failed and gives no samples.
	CheckErr string             `json:"check_err,omitempty"`
	Layers   map[string]float64 `json:"layers,omitempty"`
	Ledger   *ledger            `json:"ledger,omitempty"`
}

// childMain runs one spec read from in and writes its result to out.
func childMain(in io.Reader, out io.Writer) int {
	var spec childSpec
	if err := json.NewDecoder(in).Decode(&spec); err != nil {
		fmt.Fprintln(os.Stderr, "bench child: reading spec:", err)
		return 1
	}
	res, err := runChild(spec)
	if err == nil {
		res.PeakRSSMB, err = peakRSSMB()
	}
	if err == nil {
		err = json.NewEncoder(out).Encode(res)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "bench child: %s %s: %v\n", spec.Workload, spec.Mode, err)
		return 1
	}
	return 0
}

func runChild(spec childSpec) (*childResult, error) {
	switch spec.Workload {
	case radixMRA:
		return runRadix(spec)
	case tsaMinStream:
		return runTSA(spec)
	case paperRepro:
		return runPaper(spec)
	}
	return nil, fmt.Errorf("unknown workload %q", spec.Workload)
}

// fail records the first failed run or check of the rep.
func (r *childResult) fail(err error) {
	if r.CheckErr == "" {
		r.CheckErr = err.Error()
	}
}

// timeOnResult wraps onResult so the time spent inside it accumulates
// in *ns: the aggregation layer of a traced run.
func timeOnResult(onResult func(int, core.Result), ns *int64) func(int, core.Result) {
	return func(i int, r core.Result) {
		t := time.Now()
		onResult(i, r)
		*ns += int64(time.Since(t))
	}
}

// summaryDigest fingerprints a replay run's output: the summary, the
// verdict histogram, every packet's instruction count in trace order,
// and any extra whole-run figures.
func summaryDigest(s stats.Summary, verdicts map[uint32]int, counts []uint64, extra ...int) string {
	h := sha256.New()
	fmt.Fprintf(h, "%+v\n%v\n%v\n", s, verdicts, extra)
	var b [8]byte
	for _, c := range counts {
		binary.LittleEndian.PutUint64(b[:], c)
		h.Write(b[:])
	}
	return hex.EncodeToString(h.Sum(nil))
}

// checkPrefix runs pkts on a fresh reference-interpreter bench and
// requires each packet's verdict and record to equal the run's.
func checkPrefix(app *core.App, opts core.Options, pkts []*trace.Packet, verdicts []uint32, recs []stats.PacketRecord) error {
	opts.Engine = core.EngineInterpreter
	ref, err := core.New(app, opts)
	if err != nil {
		return err
	}
	for i, p := range pkts {
		r, err := ref.ProcessPacket(p)
		if err != nil {
			return fmt.Errorf("reference interpreter: %w", err)
		}
		if r.Verdict != verdicts[i] {
			return fmt.Errorf("packet %d: verdict %d, reference interpreter %d", i, verdicts[i], r.Verdict)
		}
		if !reflect.DeepEqual(r.Record, recs[i]) {
			return fmt.Errorf("packet %d: record %+v, reference interpreter %+v", i, recs[i], r.Record)
		}
	}
	return nil
}

// timeVerify times core.Verify: the static verifier that core.New runs
// as part of loading.
func timeVerify(app *core.App, opts core.Options) (float64, error) {
	t := time.Now()
	ds, err := core.Verify(app, opts)
	if err != nil {
		return 0, err
	}
	if ds.HasErrors() {
		return 0, fmt.Errorf("%s fails static verification", app.Name)
	}
	return time.Since(t).Seconds(), nil
}

// replay is a single-core replay of a workload's packets with a timer
// around every ProcessPacket call: traced, with the statistics collector
// attached, and untraced, on a twin bench with it detached.
type replay struct {
	traced, untraced             []int64 // ns per call
	tracedAllocs, untracedAllocs uint64
	instrs                       uint64
	records                      []stats.PacketRecord // traced records
}

func newReplay(n int) *replay {
	return &replay{traced: make([]int64, 0, n), untraced: make([]int64, 0, n), records: make([]stats.PacketRecord, 0, n)}
}

// runReplay replays each app's packet set on a fresh bench, then on its
// untraced twin.
func runReplay(apps []*core.App, opts core.Options, sets [][]*trace.Packet) (*replay, error) {
	n := 0
	for _, s := range sets {
		n += len(s)
	}
	rp := newReplay(n)
	for k, app := range apps {
		b, err := core.New(app, opts)
		if err != nil {
			return nil, err
		}
		if err := rp.run(b, sets[k], true, nil); err != nil {
			return nil, err
		}
		if err := rp.runTwin(app, opts, sets[k]); err != nil {
			return nil, err
		}
	}
	return rp, nil
}

// runTwin replays pkts on a fresh bench with the collector detached.
func (rp *replay) runTwin(app *core.App, opts core.Options, pkts []*trace.Packet) error {
	b, err := core.New(app, opts)
	if err != nil {
		return err
	}
	b.SetTracing(false)
	return rp.run(b, pkts, false, nil)
}

// run processes pkts on b one timed ProcessPacket call at a time, into
// the traced or the untraced half. each, when non-nil, sees every traced
// result.
func (rp *replay) run(b *core.Bench, pkts []*trace.Packet, traced bool, each func(core.Result)) error {
	m0 := mallocs()
	for _, p := range pkts {
		t := time.Now()
		r, err := b.ProcessPacket(p)
		d := int64(time.Since(t))
		if err != nil {
			return err
		}
		if !traced {
			rp.untraced = append(rp.untraced, d)
			continue
		}
		rp.traced = append(rp.traced, d)
		rp.instrs += r.Record.Instructions
		rp.records = append(rp.records, r.Record)
		if each != nil {
			each(r)
		}
	}
	if traced {
		rp.tracedAllocs += mallocs() - m0
	} else {
		rp.untracedAllocs += mallocs() - m0
	}
	return nil
}

// accountFrac is the collector's share of a traced call.
func (rp *replay) accountFrac() float64 {
	t := meanNS(rp.traced)
	if t == 0 {
		return 0
	}
	return (t - meanNS(rp.untraced)) / t
}

// addLayers records the replay's per-layer metrics.
func (rp *replay) addLayers(layers map[string]float64) {
	n := float64(len(rp.traced))
	s := append([]int64(nil), rp.traced...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	layers["core.process_samples"] = n
	layers["core.process_ns_p50"] = float64(percentile(s, 50))
	if percentileReportable(len(s), 99.9) {
		layers["core.process_ns_p999"] = float64(percentile(s, 99.9))
	}
	tr, un := meanNS(rp.traced), meanNS(rp.untraced)
	layers["core.process_untraced_ns_mean"] = un
	layers["stats.account_ns_per_pkt"] = tr - un
	layers["stats.account_frac"] = rp.accountFrac()
	layers["core.allocs_per_pkt_traced"] = float64(rp.tracedAllocs) / n
	layers["core.allocs_per_pkt_untraced"] = float64(rp.untracedAllocs) / float64(len(rp.untraced))
	layers["vm.instrs_per_pkt"] = float64(rp.instrs) / n
}

// tiers are the execution bodies a user can reach through core.Options.
var tiers = []struct {
	name     string
	engine   core.EngineKind
	noVerify bool
	pgo      bool
}{
	{"interp", core.EngineInterpreter, false, false},
	{"threaded", core.EngineThreaded, false, false},
	{"threaded-nofacts", core.EngineThreaded, true, false},
	{"compiled-pgo", core.EngineCompiled, false, true},
}

// sweepTiers replays each app's packet set untraced on every body in
// tiers and records vm.<tier>.ns_per_pkt. Every body's verdicts must
// equal the interpreter's. compiled-pgo compiles the blocks a CountPCs
// pass over the same packets found hottest.
func sweepTiers(apps []*core.App, opts core.Options, sets [][]*trace.Packet, layers map[string]float64) error {
	total := make([]time.Duration, len(tiers))
	n := 0
	for k, app := range apps {
		pkts := sets[k]
		counts, err := pcCounts(app, opts, pkts)
		if err != nil {
			return err
		}
		var ref []uint32
		for ti, tier := range tiers {
			o := opts
			o.Engine, o.NoVerify = tier.engine, tier.noVerify
			if tier.pgo {
				o.ProfileCounts = counts
			}
			b, err := core.New(app, o)
			if err != nil {
				return err
			}
			b.SetTracing(false)
			got := make([]uint32, len(pkts))
			t := time.Now()
			for i, p := range pkts {
				r, err := b.ProcessPacket(p)
				if err != nil {
					return fmt.Errorf("%s on %s: %w", app.Name, tier.name, err)
				}
				got[i] = r.Verdict
			}
			total[ti] += time.Since(t)
			if ti == 0 {
				ref = got
				continue
			}
			for i := range got {
				if got[i] != ref[i] {
					return fmt.Errorf("%s on %s: packet %d verdict %d, interpreter %d", app.Name, tier.name, i, got[i], ref[i])
				}
			}
		}
		n += len(pkts)
	}
	for ti, tier := range tiers {
		layers["vm."+tier.name+".ns_per_pkt"] = float64(total[ti].Nanoseconds()) / float64(n)
	}
	return nil
}

// pcCounts is the per-instruction retired count of a traced run over
// pkts: the offline profile core.Options.ProfileCounts takes.
func pcCounts(app *core.App, opts core.Options, pkts []*trace.Packet) ([]uint64, error) {
	b, err := core.New(app, opts)
	if err != nil {
		return nil, err
	}
	b.Collector().CountPCs = true
	for _, p := range pkts {
		if _, err := b.ProcessPacket(p); err != nil {
			return nil, err
		}
	}
	return b.Collector().PCCounts, nil
}

// prefix returns at most n leading elements of s.
func prefix[T any](s []T, n int) []T {
	if len(s) > n {
		return s[:n]
	}
	return s
}
