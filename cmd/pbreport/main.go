// Command pbreport regenerates the tables and figures of the paper's
// evaluation section from the reproduction's own simulated experiments.
//
// Usage:
//
//	pbreport                         # everything, paper-scale
//	pbreport -exp table2             # one experiment
//	pbreport -scale 0.1              # 10% of the paper's packet counts
//
// Experiments: table1, table2, table3, table4, table5, table6,
// fig3, fig4, fig5, fig6, fig7, fig8, fig9, all.
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"

	"repro/internal/report"
	"repro/internal/stats"
)

func main() {
	var (
		exp     = flag.String("exp", "all", "experiment to run (table1..table6, fig3..fig9, microarch, all)")
		scale   = flag.Float64("scale", 1.0, "scale factor on the paper's packet counts")
		outDir  = flag.String("out", "", "also write figure series as CSV files into this directory")
		profM   = flag.Bool("profile", false, "profile each application's guest program instead of running experiments; with -out, also writes <app>.folded and <app>.pb.gz")
		hotM    = flag.Bool("hot", false, "print each application's top-K hot basic blocks by retired instructions from a recorded profile run")
		spansM  = flag.Bool("spans", false, "print each application's packet-journey breakdown: per-stage latency plus the slowest packets attributed to guest functions")
		hotK    = flag.Int("k", 10, "rows per application in -hot and -spans modes")
		profTr  = flag.String("profile-trace", "MRA", "trace the -profile, -hot and -spans modes run each application over (MRA, COS, ODU or LAN)")
		profPkt = flag.Int("profile-packets", 1000, "packets per application in -profile mode (scaled by -scale)")
	)
	flag.Parse()
	if *hotM {
		if err := runHot(*profTr, scaled(*profPkt, *scale), *hotK); err != nil {
			fmt.Fprintln(os.Stderr, "pbreport:", err)
			os.Exit(1)
		}
		return
	}
	if *spansM {
		if err := runSpans(*profTr, scaled(*profPkt, *scale), *hotK); err != nil {
			fmt.Fprintln(os.Stderr, "pbreport:", err)
			os.Exit(1)
		}
		return
	}
	if *profM {
		if err := runProfile(*profTr, scaled(*profPkt, *scale), *outDir); err != nil {
			fmt.Fprintln(os.Stderr, "pbreport:", err)
			os.Exit(1)
		}
		return
	}
	if err := run(*exp, *scale, *outDir); err != nil {
		fmt.Fprintln(os.Stderr, "pbreport:", err)
		os.Exit(1)
	}
}

// traceEnv builds the environment of the single-trace modes (-hot,
// -spans, -profile), after checking the trace name: a name that is not
// one of report.TraceNames fails before any trace is generated.
func traceEnv(traceName string, packets int) (*report.Env, error) {
	if err := report.CheckTrace(traceName); err != nil {
		return nil, err
	}
	fmt.Fprintf(os.Stderr, "building environment (traces + routing tables)...\n")
	return report.NewEnv(report.Config{TablePackets: packets}), nil
}

// runHot is the -hot mode: run every application over the named trace
// with per-instruction counting and print the top-k basic blocks by
// retired instructions.
func runHot(traceName string, packets, k int) error {
	env, err := traceEnv(traceName, packets)
	if err != nil {
		return err
	}
	for _, app := range report.AppNames {
		rows, err := env.HotBlocks(app, traceName, packets, k)
		if err != nil {
			return fmt.Errorf("ranking %s: %w", app, err)
		}
		fmt.Println(report.FormatHotBlocks(app, traceName, rows, packets))
	}
	return nil
}

// runSpans is the -spans mode: run every application over the named
// trace with the packet-journey tracer armed and print the per-stage
// latency breakdown plus the top-k slowest journeys with function
// attribution.
func runSpans(traceName string, packets, k int) error {
	env, err := traceEnv(traceName, packets)
	if err != nil {
		return err
	}
	for _, app := range report.AppNames {
		r, err := env.Spans(app, traceName, packets, k, nil)
		if err != nil {
			return fmt.Errorf("tracing %s: %w", app, err)
		}
		fmt.Println(report.FormatSpans(r))
	}
	return nil
}

// runProfile is the -profile mode: run every application over the named
// trace with per-instruction counting and print a gprof-style flat
// profile per application. With outDir set, the folded-stack and pprof
// outputs are written alongside for external tools.
func runProfile(traceName string, packets int, outDir string) error {
	env, err := traceEnv(traceName, packets)
	if err != nil {
		return err
	}
	for _, app := range report.AppNames {
		p, err := env.Profile(app, traceName, packets)
		if err != nil {
			return fmt.Errorf("profiling %s: %w", app, err)
		}
		fmt.Printf("%s on %s, %d packets (%d instructions):\n", app, traceName, packets, p.Total)
		if err := p.WriteText(os.Stdout); err != nil {
			return err
		}
		fmt.Println()
		if outDir == "" {
			continue
		}
		if err := os.MkdirAll(outDir, 0o755); err != nil {
			return err
		}
		base := filepath.Join(outDir, strings.ReplaceAll(app, " ", "_"))
		ff, err := os.Create(base + ".folded")
		if err != nil {
			return err
		}
		if err := p.WriteFolded(ff); err != nil {
			ff.Close()
			return err
		}
		if err := ff.Close(); err != nil {
			return err
		}
		pf, err := os.Create(base + ".pb.gz")
		if err != nil {
			return err
		}
		if err := p.WritePprof(pf); err != nil {
			pf.Close()
			return err
		}
		if err := pf.Close(); err != nil {
			return err
		}
		fmt.Fprintf(os.Stderr, "wrote %s.folded and %s.pb.gz\n", base, base)
	}
	return nil
}

func scaled(n int, s float64) int {
	v := int(float64(n) * s)
	if v < 10 {
		v = 10
	}
	return v
}

func run(exp string, scale float64, outDir string) error {
	cfg := report.Config{
		TablePackets:     scaled(10_000, scale),
		CoveragePackets:  scaled(1_000, scale),
		VariationPackets: scaled(100_000, scale),
		FigurePackets:    scaled(500, scale),
	}
	want := func(name string) bool { return exp == "all" || exp == name }

	names := []string{"table1", "table2", "table3", "table4", "table5", "table6",
		"fig3", "fig4", "fig5", "fig6", "fig7", "fig8", "fig9", "microarch"}
	known := exp == "all"
	for _, n := range names {
		if n == exp {
			known = true
		}
	}
	if !known {
		return fmt.Errorf("unknown experiment %q (want one of %s, all)", exp, strings.Join(names, ", "))
	}

	if want("table1") {
		fmt.Println(report.FormatTable1(report.Table1()))
	}

	needEnv := exp == "all"
	for _, n := range names[1:] {
		if exp == n {
			needEnv = true
		}
	}
	if !needEnv {
		return nil
	}

	fmt.Fprintf(os.Stderr, "building environment (traces + routing tables)...\n")
	env := report.NewEnv(cfg)

	if want("table2") || want("table3") {
		fmt.Fprintf(os.Stderr, "running the 4x4 application/trace matrix (%d packets per cell)...\n", cfg.TablePackets)
		m, err := env.RunMatrix(cfg.TablePackets)
		if err != nil {
			return err
		}
		if want("table2") {
			fmt.Println(report.FormatTable2(m))
		}
		if want("table3") {
			fmt.Println(report.FormatTable3(m))
		}
	}
	if want("table4") {
		rows, err := env.Table4()
		if err != nil {
			return err
		}
		fmt.Println(report.FormatTable4(rows, cfg.CoveragePackets))
	}
	if want("table5") {
		rows, err := env.Variation(false)
		if err != nil {
			return err
		}
		fmt.Println(report.FormatVariation(rows, false, cfg.VariationPackets))
	}
	if want("table6") {
		rows, err := env.Variation(true)
		if err != nil {
			return err
		}
		fmt.Println(report.FormatVariation(rows, true, cfg.VariationPackets))
	}
	figSeries := []struct {
		name   string
		title  string
		ylabel string
		metric func(*stats.PacketRecord) float64
	}{
		{"fig3", "Figure 3: Packet processing complexity variation", "instructions", report.MetricInstructions},
		{"fig4", "Figure 4: Packet memory access pattern", "packet accesses", report.MetricPacketAccesses},
		{"fig5", "Figure 5: Non-packet memory access pattern", "non-packet accesses", report.MetricNonPacketAccesses},
	}
	for _, fig := range figSeries {
		if !want(fig.name) {
			continue
		}
		s, err := env.FigureSeries(fig.metric)
		if err != nil {
			return err
		}
		fmt.Println(report.FormatSeries(fig.title, fig.ylabel, s))
		if outDir != "" {
			if err := writeSeriesCSV(outDir, fig.name, fig.ylabel, s); err != nil {
				return err
			}
		}
	}
	if want("fig6") {
		p, err := env.Figure6(0)
		if err != nil {
			return err
		}
		fmt.Println(report.FormatFigure6(p))
	}
	if want("fig7") || want("fig8") {
		bs, err := env.BlockStatistics()
		if err != nil {
			return err
		}
		if want("fig7") {
			fmt.Println(report.FormatFigure7(bs))
		}
		if want("fig8") {
			fmt.Println(report.FormatFigure8(bs))
		}
	}
	if want("fig9") {
		seqs, err := env.Figure9(0)
		if err != nil {
			return err
		}
		fmt.Println(report.FormatFigure9(seqs))
	}
	if want("microarch") {
		rows, err := env.Microarch(cfg.TablePackets)
		if err != nil {
			return err
		}
		fmt.Println(report.FormatMicroarch(rows, cfg.TablePackets))
	}
	return nil
}

// writeSeriesCSV writes one figure's per-packet series as
// <dir>/<name>.csv with a packet column and one column per application,
// for external plotting tools.
func writeSeriesCSV(dir, name, ylabel string, series []report.Series) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	f, err := os.Create(filepath.Join(dir, name+".csv"))
	if err != nil {
		return err
	}
	defer f.Close()
	header := "packet"
	for _, s := range series {
		header += "," + strings.ReplaceAll(s.App, " ", "_")
	}
	if _, err := fmt.Fprintln(f, header); err != nil {
		return err
	}
	n := 0
	for _, s := range series {
		if len(s.Values) > n {
			n = len(s.Values)
		}
	}
	for i := 0; i < n; i++ {
		row := fmt.Sprint(i)
		for _, s := range series {
			if i < len(s.Values) {
				row += fmt.Sprintf(",%g", s.Values[i])
			} else {
				row += ","
			}
		}
		if _, err := fmt.Fprintln(f, row); err != nil {
			return err
		}
	}
	return f.Close()
}
