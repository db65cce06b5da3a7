package main

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"hash"
	"io"
	"os"
	"path/filepath"

	"repro/internal/gen"
	"repro/internal/trace"
)

// Workload names are fixed: result files and comparisons cite them.
const (
	radixMRA     = "radix-mra"
	tsaMinStream = "tsa-min-stream"
	paperRepro   = "paper-repro"
)

// workload is one set of inputs the benchmark runs.
type workload struct {
	name string
	// packets is the replay workloads' generated input size.
	packets int
	// scale is paper-repro's pbreport -scale.
	scale float64
	// expect is the sha256 paper-repro's output must have.
	expect string
}

// paperReproDigest is the sha256 of pbreport's complete standard output
// at scale 1.0 — the paper's tables and figures must not move.
const paperReproDigest = "65dd1b0574156492214d83d137e9d24f360817a4570b9fcea19ce75ec84d8723"

func defaultWorkloads() []workload {
	return []workload{
		{name: radixMRA, packets: 400_000},
		{name: tsaMinStream, packets: 800_000},
		{name: paperRepro, scale: 1, expect: paperReproDigest},
	}
}

// Input files, relative to a workload's input directory.
const (
	radixFile  = "mra.pcap"
	tsaShards  = 2
	tsaPattern = "dcweb-%d.pcap"
)

func tsaShard(dir string, i int) string { return filepath.Join(dir, fmt.Sprintf(tsaPattern, i)) }

// writeInputs generates w's input files for seed into dir and returns
// their sha256. paper-repro runs on the paper's fixed traces, which
// report.NewEnv builds in memory, so it has no files and no digest.
func writeInputs(w workload, seed int64, dir string) (string, error) {
	switch w.name {
	case radixMRA:
		return writeRadixInput(w.packets, seed, dir)
	case tsaMinStream:
		return writeTSAInput(w.packets, seed, dir)
	}
	return "", nil
}

// writeRadixInput writes n MRA packets, preprocessed the way packetbench
// -gen MRA does (NLANR renumbering, then scrambling), to one pcap.
func writeRadixInput(n int, seed int64, dir string) (string, error) {
	prof, err := gen.ProfileByName("MRA")
	if err != nil {
		return "", err
	}
	prof.Seed ^= seed
	pkts := gen.Generate(prof, n)
	gen.RenumberNLANR(pkts)
	gen.ScrambleAddrs(pkts)
	pw, err := createPcap(filepath.Join(dir, radixFile))
	if err != nil {
		return "", err
	}
	for _, p := range pkts {
		if err := pw.WritePacket(p); err != nil {
			pw.close()
			return "", err
		}
	}
	if err := pw.close(); err != nil {
		return "", err
	}
	return hex.EncodeToString(pw.sum.Sum(nil)), nil
}

// writeTSAInput writes n minimum-size DCWEB packets round-robin into
// tsaShards pcap shards, the layout tracegen -shards produces.
func writeTSAInput(n int, seed int64, dir string) (string, error) {
	prof, err := gen.ProfileByName("DCWEB")
	if err != nil {
		return "", err
	}
	prof.Seed ^= seed
	prof.Sizes = []gen.SizePoint{{Bytes: 40, Weight: 1}, {Bytes: 52, Weight: 1}, {Bytes: 64, Weight: 1}}
	shards := make([]*pcapFile, tsaShards)
	closeAll := func() error {
		var first error
		for _, s := range shards {
			if s == nil {
				continue
			}
			if err := s.close(); err != nil && first == nil {
				first = err
			}
		}
		return first
	}
	for i := range shards {
		if shards[i], err = createPcap(tsaShard(dir, i)); err != nil {
			closeAll()
			return "", err
		}
	}
	g := gen.NewGenerator(prof)
	for i := 0; i < n; i++ {
		if err := shards[i%tsaShards].WritePacket(g.Next()); err != nil {
			closeAll()
			return "", err
		}
	}
	if err := closeAll(); err != nil {
		return "", err
	}
	all := sha256.New()
	for _, s := range shards {
		all.Write(s.sum.Sum(nil))
	}
	return hex.EncodeToString(all.Sum(nil)), nil
}

// pcapFile is a pcap being written, hashed as it goes.
type pcapFile struct {
	*trace.PcapWriter
	f   *os.File
	buf *bufio.Writer
	sum hash.Hash
}

func createPcap(path string) (*pcapFile, error) {
	f, err := os.Create(path)
	if err != nil {
		return nil, err
	}
	p := &pcapFile{f: f, buf: bufio.NewWriterSize(f, 1<<20), sum: sha256.New()}
	if p.PcapWriter, err = trace.NewPcapWriter(io.MultiWriter(p.buf, p.sum)); err != nil {
		f.Close()
		return nil, err
	}
	return p, nil
}

func (p *pcapFile) close() error {
	if err := p.buf.Flush(); err != nil {
		p.f.Close()
		return err
	}
	return p.f.Close()
}
