// Command tracegen generates synthetic packet traces using the built-in
// profiles that stand in for the paper's MRA/COS/ODU/LAN captures, and
// writes them in tcpdump (pcap) or NLANR TSH format.
//
// Usage:
//
//	tracegen -profile MRA -n 100000 -o mra.pcap
//	tracegen -profile LAN -n 10000 -o lan.tsh
//	tracegen -profile DCWEB -n 100000 -shards 4 -o dcweb.pcap
//	tracegen -list
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"

	"repro/internal/gen"
	"repro/internal/trace"
)

func main() {
	var (
		profile  = flag.String("profile", "MRA", "trace profile (see -list)")
		count    = flag.Int("n", 10000, "number of packets")
		output   = flag.String("o", "", "output file (.pcap or .tsh); required")
		shards   = flag.Int("shards", 1, "split the trace round-robin across this many files (base-0.pcap ... base-K-1.pcap), for sharded replay")
		list     = flag.Bool("list", false, "list available profiles and exit")
		renumber = flag.Bool("renumber", false, "apply NLANR-style sequential address renumbering")
		scramble = flag.Bool("scramble", false, "apply the paper's address scrambling (usually after -renumber)")
		spec     = flag.String("spec", "", "load a custom trace profile from this JSON file instead of -profile")
	)
	flag.Parse()

	if *list {
		fmt.Printf("%-8s %-20s %10s %8s %8s %8s\n", "Name", "Link", "Packets", "Flows", "NewFlow", "FlowPkt")
		for _, p := range gen.AllProfiles() {
			fp := "-"
			if p.FlowPackets > 0 {
				fp = fmt.Sprintf("%d", p.FlowPackets)
			}
			fmt.Printf("%-8s %-20s %10d %8d %7.0f%% %8s\n",
				p.Name, p.Link, p.Packets, p.Flows, p.NewFlowProb*100, fp)
		}
		return
	}
	if err := run(*profile, *spec, *output, *count, *shards, *renumber, *scramble); err != nil {
		fmt.Fprintln(os.Stderr, "tracegen:", err)
		os.Exit(1)
	}
}

func run(profile, spec, output string, count, shards int, renumber, scramble bool) error {
	if output == "" {
		return fmt.Errorf("-o output file is required")
	}
	if shards < 1 {
		return fmt.Errorf("-shards must be at least 1")
	}
	var prof gen.Profile
	var err error
	if spec != "" {
		prof, err = loadSpec(spec)
	} else {
		prof, err = gen.ProfileByName(profile)
	}
	if err != nil {
		return err
	}
	src := gen.NewReader(prof, count, renumber, scramble)

	format := trace.FormatPcap
	if strings.HasSuffix(output, ".tsh") {
		format = trace.FormatTSH
	}
	names := shardNames(output, shards)
	files := make([]*os.File, 0, len(names))
	bufs := make([]*bufio.Writer, len(names))
	writers := make([]trace.Writer, len(names))
	// fail closes and removes every shard file this run created, so a
	// failed run leaves no partial trace behind.
	fail := func(err error) error {
		for _, f := range files {
			f.Close()
			os.Remove(f.Name())
		}
		return err
	}
	for i, name := range names {
		f, err := os.Create(name)
		if err != nil {
			return fail(err)
		}
		files = append(files, f)
		// A writer makes two small writes per record; the buffer turns
		// them into one system call per 64 KiB.
		bufs[i] = bufio.NewWriterSize(f, 64<<10)
		if writers[i], err = trace.NewWriter(bufs[i], format); err != nil {
			return fail(err)
		}
	}
	var n, bytes int
	// The writers copy each packet out, so every packet is generated
	// into one Packet and one buffer. Round-robin sharding keeps each
	// shard's timestamps monotone (the generator's are), so a
	// timestamp-merged replay of the shards reproduces the original
	// trace exactly. The generator ends with io.EOF, its only error.
	p := new(trace.Packet)
	buf := make([]byte, 1<<16)
	for src.NextInto(p, buf) == nil {
		if err := writers[n%shards].WritePacket(p); err != nil {
			if format == trace.FormatTSH && len(p.Data) > 0 && p.Data[0]&0x0F > 5 {
				err = fmt.Errorf("profile %s gives %g%% of packets IP options, which TSH records cannot hold; write .pcap instead: %w",
					prof.Name, 100*prof.OptionProb, err)
			}
			return fail(err)
		}
		n++
		bytes += p.WireLen
	}
	for i, f := range files {
		if err := bufs[i].Flush(); err != nil {
			return fail(err)
		}
		if err := f.Close(); err != nil {
			return fail(err)
		}
	}
	if shards == 1 {
		fmt.Printf("wrote %d packets (%d wire bytes) to %s (%s)\n", n, bytes, output, format)
	} else {
		fmt.Printf("wrote %d packets (%d wire bytes) across %d shards %s ... %s (%s)\n",
			n, bytes, shards, names[0], names[len(names)-1], format)
	}
	return nil
}

// shardNames derives per-shard output paths: "base.pcap" with 3 shards
// becomes base-0.pcap, base-1.pcap, base-2.pcap. One shard keeps the
// name as given.
func shardNames(output string, shards int) []string {
	if shards == 1 {
		return []string{output}
	}
	ext := filepath.Ext(output)
	base := strings.TrimSuffix(output, ext)
	names := make([]string, shards)
	for i := range names {
		names[i] = fmt.Sprintf("%s-%d%s", base, i, ext)
	}
	return names
}

// loadSpec reads a gen.Profile from a JSON file, so custom workloads can
// be generated without recompiling. Unset fields take the generator's
// defaults; a minimal spec is {"Name": "mine", "Flows": 500}.
func loadSpec(path string) (gen.Profile, error) {
	var prof gen.Profile
	data, err := os.ReadFile(path)
	if err != nil {
		return prof, err
	}
	dec := json.NewDecoder(strings.NewReader(string(data)))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&prof); err != nil {
		return prof, fmt.Errorf("tracegen: parsing %s: %w", path, err)
	}
	if prof.Name == "" {
		prof.Name = "custom"
	}
	return prof, nil
}
