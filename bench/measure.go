package main

import (
	"bufio"
	"fmt"
	"math"
	"os"
	"runtime"
	"runtime/metrics"
	"sort"
	"strconv"
	"strings"
)

// dist is the distribution of one metric's samples.
type dist struct {
	Median  float64   `json:"median"`
	Q1      float64   `json:"q1"`
	Q3      float64   `json:"q3"`
	Min     float64   `json:"min"`
	Max     float64   `json:"max"`
	N       int       `json:"n"`
	Samples []float64 `json:"samples"`
}

func summarize(xs []float64) dist {
	d := dist{N: len(xs), Samples: append([]float64(nil), xs...)}
	if len(xs) == 0 {
		return d
	}
	s := sortedCopy(xs)
	d.Min, d.Max = s[0], s[len(s)-1]
	d.Median = median(xs)
	d.Q1, d.Q3 = quartiles(xs)
	return d
}

// relIQR is the spread the regression rules use: the distance between
// the quartiles as a share of the median.
func (d dist) relIQR() float64 {
	if d.Median == 0 {
		return 0
	}
	return (d.Q3 - d.Q1) / math.Abs(d.Median)
}

func sortedCopy(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// median is the middle sample, or the mean of the two middle samples.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := sortedCopy(xs)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// quartiles returns the first and third quartiles exactly as Python's
// statistics.quantiles(xs, n=4) computes them (its default "exclusive"
// method), so a spread printed here is the spread an outside check of
// the same samples computes.
func quartiles(xs []float64) (q1, q3 float64) {
	s := sortedCopy(xs)
	ld := len(s)
	switch ld {
	case 0:
		return 0, 0
	case 1:
		return s[0], s[0]
	}
	m := ld + 1
	q := func(i int) float64 {
		j := i * m / 4
		if j < 1 {
			j = 1
		} else if j > ld-1 {
			j = ld - 1
		}
		delta := i*m - j*4
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return q(1), q(3)
}

// minBeyond is how many samples must lie beyond a percentile before it
// is reported: a tail estimate from fewer is one unlucky sample.
const minBeyond = 10

// percentileReportable reports whether percentile p (0-100) of n
// samples has at least minBeyond samples beyond it.
func percentileReportable(n int, p float64) bool {
	return float64(n)*(100-p)/100 >= minBeyond-rankSlack
}

// rankSlack absorbs the rounding in p/100*n (99.9/100*10000 is not
// exactly 9990 in floating point).
const rankSlack = 1e-6

// percentile returns the nearest-rank percentile p (0-100) of sorted.
func percentile(sorted []int64, p float64) int64 {
	if len(sorted) == 0 {
		return 0
	}
	rank := int(math.Ceil(p/100*float64(len(sorted)) - rankSlack))
	if rank < 1 {
		rank = 1
	}
	return sorted[rank-1]
}

func meanNS(xs []int64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var sum float64
	for _, x := range xs {
		sum += float64(x)
	}
	return sum / float64(len(xs))
}

// hostInfo is the host record every result carries: numbers from
// different hosts are not comparable.
type hostInfo struct {
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	OSArch     string `json:"os_arch"`
	CPUModel   string `json:"cpu_model"`
}

func readHost() hostInfo {
	return hostInfo{
		NProc:      runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion:  runtime.Version(),
		OSArch:     runtime.GOOS + "/" + runtime.GOARCH,
		CPUModel:   cpuModel(),
	}
}

// cpuModel is the first "model name" of /proc/cpuinfo, or "unknown".
func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// peakRSSMB is this process's VmHWM (peak resident set) in MiB.
func peakRSSMB() (float64, error) {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		k, v, ok := strings.Cut(sc.Text(), ":")
		if !ok || k != "VmHWM" {
			continue
		}
		kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(v), " kB"), 64)
		if err != nil {
			return 0, fmt.Errorf("parsing VmHWM %q: %w", v, err)
		}
		return kb / 1024, nil
	}
	if err := sc.Err(); err != nil {
		return 0, err
	}
	return 0, fmt.Errorf("no VmHWM in /proc/self/status")
}

func mallocs() uint64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.Mallocs
}

// gcMark is a point-in-time reading of the Go runtime's GC counters.
type gcMark struct {
	cycles        uint64
	gcCPU, allCPU float64
}

func readGC() gcMark {
	s := []metrics.Sample{
		{Name: "/gc/cycles/total:gc-cycles"},
		{Name: "/cpu/classes/gc/total:cpu-seconds"},
		{Name: "/cpu/classes/total:cpu-seconds"},
	}
	metrics.Read(s)
	return gcMark{cycles: s[0].Value.Uint64(), gcCPU: s[1].Value.Float64(), allCPU: s[2].Value.Float64()}
}

// since returns the GC cycles run, the GC CPU seconds spent, and GC's
// share of the CPU time available to the process, between m and now.
// The runtime brings its CPU classes up to date only at the end of a GC
// cycle, so the share covers the cycles that completed in between.
func (m gcMark) since() (cycles uint64, gcSeconds, frac float64) {
	now := readGC()
	cycles = now.cycles - m.cycles
	gcSeconds = now.gcCPU - m.gcCPU
	if all := now.allCPU - m.allCPU; all > 0 {
		frac = gcSeconds / all
	}
	return cycles, gcSeconds, frac
}
