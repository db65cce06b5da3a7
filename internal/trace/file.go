package trace

import (
	"errors"
	"io"
	"os"
)

// errMmapUnavailable means the platform or file cannot be memory-mapped;
// OpenPcap falls back to the buffered reader.
var errMmapUnavailable = errors.New("trace: mmap unavailable")

// FileReader is the interface OpenPcap returns: a position-reporting
// pcap reader over a file, with the skip-and-resync controls. Close
// releases the file and, when the reader is mmap-backed, the mapping —
// after which no packet returned by an mmap-backed reader may be used.
type FileReader interface {
	Reader
	Positioned
	io.Closer
	// SetSkipMalformed switches from fail-fast to skip-and-resync.
	SetSkipMalformed(b *SkipBudget)
	// Skipped returns how many malformed records were skipped so far.
	Skipped() int
	// LinkType returns the capture's link type.
	LinkType() uint32
}

// filePcapReader is a PcapReader that owns its file and, for the
// in-memory source, the mapping; close releases both.
type filePcapReader struct {
	*PcapReader
	close func() error
}

func (r *filePcapReader) Close() error { return r.close() }

// OpenPcap opens a pcap trace for reading, memory-mapping it when the
// platform allows so packet data is served zero-copy straight from the
// page cache. When mmap is unavailable (non-unix platform, empty file,
// oversized file on a 32-bit platform) it silently falls back to the
// buffered reader. Both are the same PcapReader over a different byte
// source, so they produce identical packets, positions, and errors.
func OpenPcap(path string) (FileReader, error) {
	return openPcap(path, true)
}

// OpenPcapBuffered opens a pcap trace with the buffered reader, never
// mmap. Use it when packets must not alias a shared mapping — for
// example when they outlive the reader's Close. Its packets and their
// bodies are cut from chunks the reader allocates and never reuses, so
// they stay valid after Close, and a preload allocates per chunk, not
// per packet.
func OpenPcapBuffered(path string) (FileReader, error) {
	return openPcap(path, false)
}

func openPcap(path string, tryMmap bool) (FileReader, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	st, err := f.Stat()
	if err != nil {
		f.Close()
		return nil, err
	}
	if tryMmap {
		if data, unmap, merr := mmapFile(f, st.Size()); merr == nil {
			r, err := NewBytesPcapReader(data)
			if err != nil {
				unmap()
				f.Close()
				return nil, err
			}
			return &filePcapReader{PcapReader: r, close: func() error {
				err := unmap()
				if cerr := f.Close(); err == nil {
					err = cerr
				}
				return err
			}}, nil
		}
	}
	r, err := NewPcapReader(f)
	if err != nil {
		f.Close()
		return nil, err
	}
	r.SetTotal(st.Size())
	return &filePcapReader{PcapReader: r, close: f.Close}, nil
}
