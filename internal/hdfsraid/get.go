package hdfsraid

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"sync"
	"time"
)

// getBufSize is the size of the pooled buffer a whole-file stream
// batches its sink writes through: a GET makes one sink write per
// 128 KiB, not one per block.
const getBufSize = 128 << 10

var getBufPool = sync.Pool{New: func() any { return bufio.NewWriterSize(nil, getBufSize) }}

// lazySink calls start on the stream's first write, so a stream that
// fails before any byte leaves start uncalled and the sink untouched.
type lazySink struct {
	start  func(length int) io.Writer
	length int
	w      io.Writer
}

func (l *lazySink) Write(p []byte) (int, error) {
	if l.w == nil {
		l.w = l.start(l.length)
	}
	return l.w.Write(p)
}

// Get reads a whole file back into memory. It is GetTo into a buffer
// sized from the file's length.
func (s *Store) Get(name string) ([]byte, error) {
	var buf *bytes.Buffer
	err := s.GetTo(name, func(length int) io.Writer {
		buf = bytes.NewBuffer(make([]byte, 0, length))
		return buf
	})
	if err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

// GetTo streams a whole file to a sink, decoding around missing or
// corrupt blocks as long as each stripe remains within the code's
// erasure tolerance. start is called once, with the file's length,
// just before the first byte is written (at the end for an empty
// file), and returns the sink. An error returned before start was
// called means the sink saw nothing; after it, the sink holds a prefix
// of the file.
//
// Stripes are read in file order on the calling goroutine through one
// stripeReader: an intact stripe costs one replica read per data block
// the file holds there, and parity and padding are read (and the
// stripe decoded and healed) only when a data replica fails its read
// (see stripeReader.read). The manifest read lock is taken once per
// stripe and released before the stripe's bytes go to the sink, so a
// slow sink never holds up a writer. Under the lock the stream checks
// that the file's entry is still the one it started from and that the
// extent is not mid-swap; a delete, re-ingest or transcode commit
// between two stripes aborts the stream with an error, so it never
// mixes two versions and never heals a deleted file's blocks back.
func (s *Store) GetTo(name string, start func(length int) io.Writer) error {
	var t0 time.Time
	if s.obs != nil {
		t0 = time.Now()
	}
	s.mu.RLock()
	fi, ok := s.manifest.Files[name]
	if !ok {
		s.mu.RUnlock()
		return fmt.Errorf("hdfsraid: %w %q", ErrNotFound, name)
	}
	for e := range fi.Extents {
		if s.pendingSwapLocked(name, e) {
			s.mu.RUnlock()
			return fmt.Errorf("hdfsraid: %q extent %d is mid-swap in the journal; run Recover", name, e)
		}
	}
	s.mu.RUnlock()
	s.touch(name, 0, len(fi.Extents)-1)
	ccs, err := s.extentCodecs(fi)
	if err != nil {
		return err
	}

	sink := &lazySink{start: start, length: fi.Length}
	bw := getBufPool.Get().(*bufio.Writer)
	bw.Reset(sink)
	defer func() {
		bw.Reset(nil)
		getBufPool.Put(bw)
	}()
	r := stripeReader{s: s}
	defer r.close()
	bs := s.blockSize
	degraded := false
	for ext, e := range fi.Extents {
		k := ccs[ext].code.DataSymbols()
		for i := 0; i < e.Stripes; i++ {
			data, degr, err := s.readStreamStripe(&r, ccs[ext], name, fi, ext, i)
			if err != nil {
				return err
			}
			degraded = degraded || degr
			for b, block := range data {
				off := (e.Start + i*k + b) * bs // file-global data block
				if _, err := bw.Write(block[:min(bs, fi.Length-off)]); err != nil {
					return fmt.Errorf("hdfsraid: streaming %q: %w", name, err)
				}
			}
		}
	}
	if err := bw.Flush(); err != nil {
		return fmt.Errorf("hdfsraid: streaming %q: %w", name, err)
	}
	if sink.w == nil {
		start(fi.Length) // empty file: nothing was written
	}
	if s.obs != nil {
		elapsed := time.Since(t0).Nanoseconds()
		if degraded {
			s.obs.getDegraded.Observe(elapsed)
			s.obs.readsDegraded.Inc()
		} else {
			s.obs.getIntact.Observe(elapsed)
		}
		s.obs.bytesOut.Add(int64(fi.Length))
	}
	return nil
}

// readStreamStripe reads the data blocks of one stripe of a GetTo
// stream under mu's read side, after checking that name's entry is
// still fi and the extent is not mid-swap. Only the data symbols
// carrying file bytes are wanted: a short last stripe's padding is
// read (with the parity) only when the stripe is damaged. The blocks
// alias r's frames and stay valid until its next read.
func (s *Store) readStreamStripe(r *stripeReader, cc codec, name string, fi FileInfo, ext, stripe int) ([][]byte, bool, error) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	cur, ok := s.manifest.Files[name]
	if !ok {
		return nil, false, fmt.Errorf("hdfsraid: %w %q: deleted during read", ErrNotFound, name)
	}
	if !sameEntry(cur, fi) {
		return nil, false, fmt.Errorf("hdfsraid: %q changed during read", name)
	}
	if s.pendingSwapLocked(name, ext) {
		return nil, false, fmt.Errorf("hdfsraid: %q extent %d is mid-swap in the journal; run Recover", name, ext)
	}
	k := cc.code.DataSymbols()
	want := min(k, fi.Extents[ext].Blocks-stripe*k)
	data, degraded, err := r.read(cc, name, fi, ext, stripe, want, true)
	if err != nil {
		return nil, false, fmt.Errorf("hdfsraid: decoding %q extent %d stripe %d: %w", name, ext, stripe, err)
	}
	return data, degraded, nil
}

// sameEntry reports whether cur is the manifest entry fi was read
// from. Every writer of an entry (Put, PutReader, a transcode commit,
// a manifest reload) installs a fresh Extents slice, so the same
// length and the same backing array mean no write happened between.
func sameEntry(cur, fi FileInfo) bool {
	return cur.Length == fi.Length && len(cur.Extents) == len(fi.Extents) &&
		(len(fi.Extents) == 0 || &cur.Extents[0] == &fi.Extents[0])
}

// touch fires the heat hooks for a read of name's extents first..last.
// Callers hold no store lock: a hook may block (the tier access log
// flushes and fsyncs inline), and one run under mu's read side would
// stall a writer waiting on mu and, behind it, every new reader.
func (s *Store) touch(name string, first, last int) {
	if s.OnRead != nil {
		s.OnRead(name)
	}
	if s.OnReadExtent != nil {
		for e := first; e <= last; e++ {
			s.OnReadExtent(name, e)
		}
	}
}
