package main

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"io"
	"path/filepath"
	"sync"
	"time"

	"repro/internal/apps"
	"repro/internal/core"
	"repro/internal/packet"
	"repro/internal/ptrace"
	"repro/internal/report"
	"repro/internal/route"
	"repro/internal/stats"
	"repro/internal/trace"
)

// radixOpts are packetbench's single-core options.
var radixOpts = core.Options{Coverage: true}

// tsaKey is packetbench's default -key.
const tsaKey = 0x5453412D31363A31

// runRadix is `packetbench -app radix -trace mra.pcap`: preload the
// trace, derive the routing table from its destinations, and run the
// heaviest application on one core with the coverage collector.
func runRadix(spec childSpec) (*childResult, error) {
	gc0 := readGC()
	t0 := time.Now()
	r, err := trace.OpenPcapBuffered(filepath.Join(spec.Dir, radixFile))
	if err != nil {
		return nil, err
	}
	pkts, err := trace.ReadAll(r, 0)
	r.Close()
	if err != nil {
		return nil, err
	}
	tRead := time.Now()
	var dsts []uint32
	for _, p := range pkts {
		if h, err := packet.ParseIPv4(p.Data); err == nil {
			dsts = append(dsts, h.Dst)
		}
	}
	app := apps.IPv4Radix(route.TableFromTraffic(dsts, 32768, 16, 1))
	tRoute := time.Now()
	b, err := core.New(app, radixOpts)
	if err != nil {
		return nil, err
	}
	tNew := time.Now()
	res := &childResult{SetupS: tNew.Sub(t0).Seconds(), Attempted: len(pkts)}
	if spec.Mode == modeSetup {
		return res, nil
	}

	traced := spec.Mode == modeTraced
	verdicts := make(map[uint32]int)
	first := make([]uint32, min(checkPackets, len(pkts)))
	onResult := func(i int, r core.Result) {
		if r.Faulted() {
			return
		}
		verdicts[r.Verdict]++
		if i < len(first) {
			first[i] = r.Verdict
		}
	}
	// The traced run phase is itself the per-call replay: RunPackets is a
	// loop of ProcessPacket calls, so the per-call times and the wall
	// time they are attributed against come from the same execution.
	var aggNS int64
	var recs []stats.PacketRecord
	var rp *replay
	m0 := mallocs()
	t1 := time.Now()
	if traced {
		onResult = timeOnResult(onResult, &aggNS)
		rp = newReplay(len(pkts))
		err = rp.run(b, pkts, true, func(r core.Result) { onResult(len(rp.traced)-1, r) })
		recs = rp.records
	} else {
		recs, err = b.RunPackets(pkts, onResult)
	}
	if err != nil {
		res.fail(err)
		return res, nil
	}
	tSum := time.Now()
	sum := stats.Summarize(recs)
	end := time.Now()
	res.RunS = end.Sub(t1).Seconds()
	res.Mallocs = mallocs() - m0
	res.Failed = sum.Faulted
	res.Digest = summaryDigest(sum, verdicts, stats.InstructionCounts(recs),
		b.Collector().InstrMemSize(), b.Collector().DataMemSize())
	if err := checkPrefix(app, radixOpts, pkts[:len(first)], first, recs); err != nil {
		res.fail(err)
	}
	if !traced {
		return res, nil
	}

	n := float64(len(pkts))
	aggNS += int64(end.Sub(tSum))
	l := map[string]float64{
		"trace.preload_s":            tRead.Sub(t0).Seconds(),
		"trace.read_ns_per_pkt":      float64(tRead.Sub(t0)) / n,
		"route.build_s":              tRoute.Sub(tRead).Seconds(),
		"core.new_s":                 tNew.Sub(tRoute).Seconds(),
		"stats.aggregate_ns_per_pkt": float64(aggNS) / n,
	}
	res.Layers = l
	gcSeconds := addGC(l, gc0)
	if l["core.verify_s"], err = timeVerify(app, radixOpts); err != nil {
		return nil, err
	}
	if err := rp.runTwin(app, radixOpts, pkts); err != nil {
		return nil, err
	}
	rp.addLayers(l)
	if err := sweepTiers([]*core.App{app}, radixOpts, [][]*trace.Packet{prefix(pkts, sweepPackets)}, l); err != nil {
		res.fail(err)
	}
	tracedNS := meanNS(rp.traced) * n
	coreNS := meanNS(rp.untraced) * n
	led := newLedger(float64(end.Sub(t0)), len(pkts), []ledgerRow{
		{Layer: "trace: pcap read + decode (preload)", NS: float64(tRead.Sub(t0))},
		{Layer: "route: table build", NS: float64(tRoute.Sub(tRead))},
		{Layer: "core: load (New)", NS: float64(tNew.Sub(tRoute))},
		{Layer: "core+vm: place + dispatch + execute", NS: coreNS},
		{Layer: "stats: accounting (collector)", NS: tracedNS - coreNS},
		{Layer: "stats: aggregate (onResult + Summarize)", NS: float64(aggNS)},
		{Layer: "go runtime: GC CPU", NS: gcSeconds * 1e9, Overlapped: true},
	})
	res.Ledger = &led
	l["ledger.unattributed_frac"] = led.UnattributedFrac
	return res, nil
}

// addGC records the Go runtime's GC cycles and CPU share since gc0 and
// returns the GC CPU seconds.
func addGC(layers map[string]float64, gc0 gcMark) float64 {
	cycles, gcSeconds, frac := gc0.since()
	layers["go.gc_cycles"] = float64(cycles)
	layers["go.gc_cpu_frac"] = frac
	return gcSeconds
}

// runTSA is `packetbench -app tsa -trace s0.pcap,s1.pcap -pool N`: the
// shards are memory-mapped, merged by timestamp and streamed in batches
// through a pool of N cores, and every result is aggregated in trace
// order. The traced run arms the pool's own packet-journey tracer.
func runTSA(spec childSpec) (*childResult, error) {
	traced := spec.Mode == modeTraced
	var tracer *ptrace.Tracer
	if traced {
		tracer = ptrace.New(ptrace.Config{Lanes: spec.Workers})
	}
	gc0 := readGC()
	t0 := time.Now()
	merged, err := openTSA(spec.Dir, trace.OpenPcap)
	if err != nil {
		return nil, err
	}
	// Closing unmaps the shards, so it must happen exactly once.
	closeShards := sync.OnceValue(merged.Close)
	defer closeShards()
	tOpen := time.Now()
	app := apps.TSAApp(tsaKey)
	pool, err := core.NewPool(app, spec.Workers, core.Options{Trace: tracer})
	if err != nil {
		return nil, err
	}
	tNew := time.Now()
	res := &childResult{SetupS: tNew.Sub(t0).Seconds()}
	if spec.Mode == modeSetup {
		return res, nil
	}

	var rd trace.Reader = merged
	var readNS, reads, readPkts int64
	if traced {
		rd = trace.NewTimedReader(merged, tracer.Now, func(n int, _, dur int64) {
			readNS += dur
			reads++
			readPkts += int64(n)
		})
	}
	agg := &stats.Running{KeepInstructionCounts: true}
	first := make([]core.Result, 0, checkPackets)
	onResult := func(i int, r core.Result) {
		if r.Shed {
			agg.AddShed(1)
			return
		}
		agg.Add(&r.Record)
		if !r.Faulted() {
			agg.AddVerdict(r.Verdict)
		}
		if len(first) < cap(first) {
			first = append(first, r)
		}
	}
	var aggNS int64
	if traced {
		onResult = timeOnResult(onResult, &aggNS)
	}
	m0 := mallocs()
	t1 := time.Now()
	_, runErr := pool.RunTrace(rd, 0, onResult)
	sum := agg.Summary()
	end := time.Now()
	res.RunS = end.Sub(t1).Seconds()
	res.Mallocs = mallocs() - m0
	res.Attempted = sum.Packets + sum.Shed
	res.Failed = sum.Faulted + sum.Shed
	if runErr != nil {
		res.fail(runErr)
		return res, nil
	}
	res.Digest = summaryDigest(sum, agg.Verdicts(), agg.InstructionCounts())
	// The checks re-read the trace through the buffered reader; the
	// mapped shards are released first.
	if err := closeShards(); err != nil {
		return nil, err
	}
	head, err := readTSA(spec.Dir, checkPackets)
	if err != nil {
		return nil, err
	}
	verdicts := make([]uint32, len(first))
	recs := make([]stats.PacketRecord, len(first))
	for i, r := range first {
		verdicts[i], recs[i] = r.Verdict, r.Record
	}
	if len(head) != len(first) {
		res.fail(fmt.Errorf("the run delivered %d of the first %d packets", len(first), len(head)))
	} else if err := checkPrefix(app, core.Options{}, head, verdicts, recs); err != nil {
		res.fail(err)
	}
	if !traced {
		return res, nil
	}

	n := float64(res.Attempted)
	runNS := float64(end.Sub(t1))
	st := tracer.Summary(1).Stages
	queue, exec, read := st[ptrace.StageQueue], st[ptrace.StageExec], st[ptrace.StageRead]
	workers := float64(spec.Workers)
	l := map[string]float64{
		"trace.open_s":               tOpen.Sub(t0).Seconds(),
		"trace.read_ns_per_pkt":      float64(readNS) / float64(readPkts),
		"trace.pkts_per_batch":       float64(readPkts) / float64(reads),
		"core.new_s":                 tNew.Sub(tOpen).Seconds(),
		"pool.queue_wait_ns_mean":    queue.MeanNS(),
		"pool.queue_wait_ns_max":     float64(queue.MaxNS),
		"pool.exec_ns_mean":          exec.MeanNS(),
		"pool.worker_busy_frac":      float64(exec.SumNS) / (runNS * workers),
		"pool.producer_busy_frac":    float64(read.SumNS) / runNS,
		"stats.aggregate_ns_per_pkt": float64(aggNS) / n,
	}
	res.Layers = l
	gcSeconds := addGC(l, gc0)
	if l["core.verify_s"], err = timeVerify(app, core.Options{}); err != nil {
		return nil, err
	}
	pkts, err := readTSA(spec.Dir, 0)
	if err != nil {
		return nil, err
	}
	rp, err := runReplay([]*core.App{app}, core.Options{}, [][]*trace.Packet{pkts})
	if err != nil {
		return nil, err
	}
	rp.addLayers(l)
	if err := sweepTiers([]*core.App{app}, core.Options{}, [][]*trace.Packet{prefix(pkts, sweepPackets)}, l); err != nil {
		res.fail(err)
	}
	// The workers bound throughput, so the ledger follows one worker
	// lane: its execution time split by the replay's accounting share.
	// The producer and aggregator run on their own goroutines alongside.
	perWorker := float64(exec.SumNS) / workers
	af := rp.accountFrac()
	led := newLedger(float64(end.Sub(t0)), res.Attempted, []ledgerRow{
		{Layer: "trace: open shards (mmap)", NS: float64(tOpen.Sub(t0))},
		{Layer: "core: load (NewPool)", NS: float64(tNew.Sub(tOpen))},
		{Layer: "core+vm: place + dispatch + execute (per worker)", NS: perWorker * (1 - af)},
		{Layer: "stats: accounting (per worker)", NS: perWorker * af},
		{Layer: "trace: read + decode + merge (producer)", NS: float64(readNS), Overlapped: true},
		{Layer: "stats: aggregate (onResult, in order)", NS: float64(aggNS), Overlapped: true},
		{Layer: "go runtime: GC CPU", NS: gcSeconds * 1e9, Overlapped: true},
	})
	res.Ledger = &led
	l["ledger.unattributed_frac"] = led.UnattributedFrac
	return res, nil
}

// openTSA opens tsa-min-stream's shards with open and merges them by
// timestamp.
func openTSA(dir string, open func(string) (trace.FileReader, error)) (*trace.MergeReader, error) {
	shards := make([]trace.Reader, 0, tsaShards)
	for i := 0; i < tsaShards; i++ {
		fr, err := open(tsaShard(dir, i))
		if err != nil {
			trace.NewMergeReader(shards...).Close()
			return nil, err
		}
		shards = append(shards, fr)
	}
	return trace.NewMergeReader(shards...), nil
}

// readTSA reads the first n packets (all when n <= 0) of the merged
// shards through the buffered reader, so they outlive the files.
func readTSA(dir string, n int) ([]*trace.Packet, error) {
	merged, err := openTSA(dir, trace.OpenPcapBuffered)
	if err != nil {
		return nil, err
	}
	pkts, err := trace.ReadAll(merged, n)
	if cerr := merged.Close(); err == nil {
		err = cerr
	}
	return pkts, err
}

// paperConfig is pbreport's configuration at -scale s.
func paperConfig(s float64) report.Config {
	scaled := func(n int) int { return max(10, int(float64(n)*s)) }
	return report.Config{
		TablePackets:     scaled(10_000),
		CoveragePackets:  scaled(1_000),
		VariationPackets: scaled(100_000),
		FigurePackets:    scaled(500),
	}
}

// paperPackets is how many packets pbreport's experiments simulate in
// total: Tables II/III (4 traces x 4 apps), Table IV (4 apps), Tables
// V and VI (4 apps each), Figures 3-5 and 7/8 (2 apps each), one packet
// per app for Figures 6 and 9, and the microarchitectural table.
func paperPackets(c report.Config) int {
	return 16*c.TablePackets + 4*c.CoveragePackets + 8*c.VariationPackets +
		3*2*c.FigurePackets + 2*c.FigurePackets + 2 + 2 + 4*c.TablePackets
}

// paperSteps is the time pbreport's experiments spend per layer.
type paperSteps struct {
	matrix, table4, variation, figures, microarch, format time.Duration
}

// figureSeries are pbreport's Figures 3-5.
var figureSeries = []struct {
	title, ylabel string
	metric        func(*stats.PacketRecord) float64
}{
	{"Figure 3: Packet processing complexity variation", "instructions", report.MetricInstructions},
	{"Figure 4: Packet memory access pattern", "packet accesses", report.MetricPacketAccesses},
	{"Figure 5: Non-packet memory access pattern", "non-packet accesses", report.MetricNonPacketAccesses},
}

// reproduce runs every pbreport experiment in pbreport's order and
// writes each result to out exactly as pbreport prints it.
func reproduce(env *report.Env, out io.Writer) (paperSteps, error) {
	cfg := env.Config()
	var st paperSteps
	emit := func(format func() string) {
		t := time.Now()
		fmt.Fprintln(out, format())
		st.format += time.Since(t)
	}
	step := func(d *time.Duration, f func() error) error {
		t := time.Now()
		err := f()
		*d += time.Since(t)
		return err
	}
	emit(func() string { return report.FormatTable1(report.Table1()) })
	var m *report.Matrix
	if err := step(&st.matrix, func() (err error) { m, err = env.RunMatrix(cfg.TablePackets); return err }); err != nil {
		return st, err
	}
	emit(func() string { return report.FormatTable2(m) })
	emit(func() string { return report.FormatTable3(m) })
	var t4 []report.Table4Row
	if err := step(&st.table4, func() (err error) { t4, err = env.Table4(); return err }); err != nil {
		return st, err
	}
	emit(func() string { return report.FormatTable4(t4, cfg.CoveragePackets) })
	for _, unique := range []bool{false, true} {
		var rows []report.VariationRow
		if err := step(&st.variation, func() (err error) { rows, err = env.Variation(unique); return err }); err != nil {
			return st, err
		}
		emit(func() string { return report.FormatVariation(rows, unique, cfg.VariationPackets) })
	}
	for _, fig := range figureSeries {
		var s []report.Series
		if err := step(&st.figures, func() (err error) { s, err = env.FigureSeries(fig.metric); return err }); err != nil {
			return st, err
		}
		emit(func() string { return report.FormatSeries(fig.title, fig.ylabel, s) })
	}
	var p []report.Pattern
	if err := step(&st.figures, func() (err error) { p, err = env.Figure6(0); return err }); err != nil {
		return st, err
	}
	emit(func() string { return report.FormatFigure6(p) })
	var bs []report.BlockStats
	if err := step(&st.figures, func() (err error) { bs, err = env.BlockStatistics(); return err }); err != nil {
		return st, err
	}
	emit(func() string { return report.FormatFigure7(bs) })
	emit(func() string { return report.FormatFigure8(bs) })
	var seqs []report.MemSeq
	if err := step(&st.figures, func() (err error) { seqs, err = env.Figure9(0); return err }); err != nil {
		return st, err
	}
	emit(func() string { return report.FormatFigure9(seqs) })
	var ua []report.MicroarchRow
	if err := step(&st.microarch, func() (err error) { ua, err = env.Microarch(cfg.TablePackets); return err }); err != nil {
		return st, err
	}
	emit(func() string { return report.FormatMicroarch(ua, cfg.TablePackets) })
	return st, nil
}

// paperApps are the four applications as report.Env instantiates them.
func paperApps(env *report.Env) []*core.App {
	cfg := env.Config()
	return []*core.App{
		apps.IPv4Radix(env.Table),
		apps.IPv4Trie(env.Table),
		apps.FlowClassification(cfg.FlowBuckets),
		apps.TSAApp(cfg.TSAKey),
	}
}

// Per application, the paper-repro replay and tier sweep run this many
// COS packets: Tables V and VI, four applications over COS, are four
// fifths of everything pbreport simulates.
const (
	paperReplayPackets = 25_000
	paperSweepPackets  = sweepPackets / 4
)

// runPaper is `pbreport` at -scale spec.Scale: build the environment,
// run every experiment, and hash the output exactly as pbreport
// prints it. Its inputs are the paper's fixed traces; the seed does not
// reach it.
func runPaper(spec childSpec) (*childResult, error) {
	gc0 := readGC()
	t0 := time.Now()
	env := report.NewEnv(paperConfig(spec.Scale))
	tEnv := time.Now()
	res := &childResult{SetupS: tEnv.Sub(t0).Seconds(), Attempted: paperPackets(env.Config())}
	if spec.Mode == modeSetup {
		return res, nil
	}
	h := sha256.New()
	m0 := mallocs()
	steps, err := reproduce(env, h)
	end := time.Now()
	res.RunS = end.Sub(tEnv).Seconds()
	res.Mallocs = mallocs() - m0
	if err != nil {
		res.fail(err)
		return res, nil
	}
	res.Digest = hex.EncodeToString(h.Sum(nil))
	if res.Digest != spec.Expect {
		res.fail(fmt.Errorf("output sha256 %s, want %s", res.Digest, spec.Expect))
	}
	if spec.Mode != modeTraced {
		return res, nil
	}

	l := map[string]float64{
		"report.env_s":       tEnv.Sub(t0).Seconds(),
		"report.matrix_s":    steps.matrix.Seconds(),
		"report.table4_s":    steps.table4.Seconds(),
		"report.variation_s": steps.variation.Seconds(),
		"report.figures_s":   steps.figures.Seconds(),
		"report.microarch_s": steps.microarch.Seconds(),
		"report.format_s":    steps.format.Seconds(),
	}
	res.Layers = l
	gcSeconds := addGC(l, gc0)
	all := paperApps(env)
	for _, app := range all {
		v, err := timeVerify(app, core.Options{})
		if err != nil {
			return nil, err
		}
		t := time.Now()
		if _, err := core.New(app, core.Options{}); err != nil {
			return nil, err
		}
		l["core.verify_s"] += v
		l["core.new_s"] += time.Since(t).Seconds()
	}
	replaySets := make([][]*trace.Packet, len(all))
	sweepSets := make([][]*trace.Packet, len(all))
	for i := range all {
		replaySets[i] = env.Trace("COS", paperReplayPackets)
		sweepSets[i] = env.Trace("COS", paperSweepPackets)
	}
	rp, err := runReplay(all, core.Options{}, replaySets)
	if err != nil {
		return nil, err
	}
	rp.addLayers(l)
	t := time.Now()
	stats.Summarize(rp.records)
	l["stats.aggregate_ns_per_pkt"] = float64(time.Since(t)) / float64(len(rp.records))
	if err := sweepTiers(all, core.Options{}, sweepSets, l); err != nil {
		res.fail(err)
	}
	led := newLedger(float64(end.Sub(t0)), res.Attempted, []ledgerRow{
		{Layer: "report: environment (NewEnv)", NS: float64(tEnv.Sub(t0))},
		{Layer: "report: Tables II/III matrix", NS: float64(steps.matrix)},
		{Layer: "report: Table IV coverage", NS: float64(steps.table4)},
		{Layer: "report: Tables V/VI variation", NS: float64(steps.variation)},
		{Layer: "report: Figures 3-9", NS: float64(steps.figures)},
		{Layer: "report: microarch profile", NS: float64(steps.microarch)},
		{Layer: "report: format + hash", NS: float64(steps.format)},
		{Layer: "go runtime: GC CPU", NS: gcSeconds * 1e9, Overlapped: true},
	})
	res.Ledger = &led
	l["ledger.unattributed_frac"] = led.UnattributedFrac
	return res, nil
}
