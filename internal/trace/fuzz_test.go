package trace

import (
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"testing"
)

// FuzzPcapReader checks the pcap reader is panic-free and terminates on
// arbitrary input, in both fail-fast and skip-and-resync modes: every
// corruption surfaces as a typed *MalformedRecordError (or a clean io
// error), packet invariants hold, and skip mode never exceeds its budget.
// Every packet returned is kept and re-checked at the end of the input,
// so a body or Packet that overlaps another, or a reused chunk, shows.
func FuzzPcapReader(f *testing.F) {
	var buf bytes.Buffer
	w, _ := NewPcapWriter(&buf)
	data := make([]byte, 40)
	data[0] = 0x45
	_ = w.WritePacket(&Packet{Sec: 1, Usec: 2, Data: data})
	f.Add(buf.Bytes())
	f.Add([]byte{})
	f.Add(buf.Bytes()[:20])
	f.Add(bytes.Repeat([]byte{0xA1}, 64))
	corrupt := bytes.Clone(buf.Bytes())
	binary.LittleEndian.PutUint32(corrupt[pcapHeaderLen+8:], 0xFFFFFFFF)
	f.Add(corrupt)

	f.Fuzz(func(t *testing.T, b []byte) {
		for _, budget := range []int{-1, 0, 2} {
			r, err := NewPcapReader(bytes.NewReader(b))
			if err != nil {
				continue // bad magic or truncated global header
			}
			if budget >= 0 {
				r.SetSkipMalformed(NewSkipBudget(budget))
			}
			var kept keptPackets
			for n := 0; n < 1000; n++ {
				p, err := r.Next()
				if err == io.EOF {
					break
				}
				if err != nil {
					var merr *MalformedRecordError
					if errors.Is(err, ErrMalformedRecord) && !errors.As(err, &merr) {
						t.Fatalf("malformed error is not typed: %v", err)
					}
					break
				}
				if len(p.Data) == 0 || p.WireLen < len(p.Data) {
					t.Fatalf("invariant broken: len(Data)=%d WireLen=%d", len(p.Data), p.WireLen)
				}
				kept.add(p)
			}
			kept.check(t)
			if budget > 0 && r.Skipped() > budget {
				t.Fatalf("Skipped %d exceeds budget %d", r.Skipped(), budget)
			}
			if r.Pos() > int64(len(b)) {
				t.Fatalf("Pos %d past the input's %d bytes", r.Pos(), len(b))
			}
		}
	})
}

// FuzzTSHReader does the same for the TSH reader.
func FuzzTSHReader(f *testing.F) {
	f.Add(make([]byte, TSHRecordLen))
	f.Add(make([]byte, TSHRecordLen*2+10))
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, b []byte) {
		r := NewTSHReader(bytes.NewReader(b))
		var kept keptPackets
		for {
			p, err := r.Next()
			if err != nil {
				break
			}
			if len(p.Data) != 36 {
				t.Fatalf("TSH packet with %d bytes", len(p.Data))
			}
			kept.add(p)
		}
		kept.check(t)
	})
}

// keptPackets holds every packet a reader returned with a copy of what
// it held then.
type keptPackets struct {
	pkts []*Packet
	want []Packet
}

func (k *keptPackets) add(p *Packet) {
	k.pkts = append(k.pkts, p)
	k.want = append(k.want, Packet{Sec: p.Sec, Usec: p.Usec, Data: bytes.Clone(p.Data), WireLen: p.WireLen})
}

// check appends to every kept packet's Data, which must copy, and then
// fails unless every kept packet still holds what it held when
// returned: a body whose capacity runs into another body, or a chunk
// reused by a later read, shows here.
func (k *keptPackets) check(t *testing.T) {
	t.Helper()
	for _, p := range k.pkts {
		_ = append(p.Data, 0xEE, 0xEE, 0xEE, 0xEE)
	}
	for i, p := range k.pkts {
		w := k.want[i]
		if p.Sec != w.Sec || p.Usec != w.Usec || p.WireLen != w.WireLen || !bytes.Equal(p.Data, w.Data) {
			t.Fatalf("kept packet %d changed after it was returned: %+v, want %+v", i, p, w)
		}
	}
}
