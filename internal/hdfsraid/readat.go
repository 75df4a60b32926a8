package hdfsraid

import (
	"fmt"
	"io"
	"time"
)

// ReadAt reads len(p) bytes of a stored file starting at byte offset
// off — the ranged-read primitive the serving front door's HTTP Range
// path sits on. It follows io.ReaderAt semantics: a read past the end
// returns the bytes available and io.EOF; n == len(p) iff err == nil.
// Each touched data block is served the way ReadBlockInto serves it —
// a healthy replica first, then the code's partial-parity read plan —
// and only the extents the range intersects are read or counted as
// heat, so a ranged read of a large file never pays for (or warms) the
// rest of it. The manifest read lock spans the whole read, so a
// concurrent transcode's block swap can never be observed half-done;
// the heat hooks run after it is released.
func (s *Store) ReadAt(p []byte, name string, off int64) (n int, err error) {
	var start time.Time
	degraded := false
	if s.obs != nil {
		start = time.Now()
		defer func() {
			if err != nil && err != io.EOF {
				return
			}
			s.obs.readAtNs.Observe(time.Since(start).Nanoseconds())
			if degraded {
				s.obs.readsDegraded.Inc()
			}
			s.obs.bytesOut.Add(int64(n))
		}()
	}
	if off < 0 {
		return 0, fmt.Errorf("hdfsraid: negative read offset %d", off)
	}
	// The heat hooks fire once the checks below pass, from a defer
	// registered before the unlock's, so they run after it.
	firstExt, lastExt := -1, -1
	defer func() {
		if firstExt >= 0 {
			s.touch(name, firstExt, lastExt)
		}
	}()
	s.mu.RLock()
	defer s.mu.RUnlock()
	fi, ok := s.manifest.Files[name]
	if !ok {
		return 0, fmt.Errorf("hdfsraid: %w %q", ErrNotFound, name)
	}
	if len(p) == 0 {
		return 0, nil
	}
	if off >= int64(fi.Length) {
		return 0, io.EOF
	}
	want := int64(len(p))
	if rem := int64(fi.Length) - off; want > rem {
		want = rem
	}
	bs := int64(s.blockSize)
	first := int(off / bs)
	last := int((off + want - 1) / bs)
	lo, hi := extentOf(fi, first), extentOf(fi, last)
	for e := lo; e <= hi; e++ {
		if s.pendingSwapLocked(name, e) {
			return 0, fmt.Errorf("hdfsraid: %q extent %d is mid-swap in the journal; run Recover", name, e)
		}
	}
	firstExt, lastExt = lo, hi
	buf := s.payloadPool.Get()
	defer s.payloadPool.Put(buf)
	ext := firstExt
	cc, err := s.codecByName(fi.Extents[ext].Code)
	if err != nil {
		return 0, err
	}
	for g := first; g <= last; g++ {
		for g >= fi.Extents[ext].Start+fi.Extents[ext].Blocks {
			ext++
			if cc, err = s.codecByName(fi.Extents[ext].Code); err != nil {
				return n, err
			}
		}
		l := g - fi.Extents[ext].Start
		k := cc.code.DataSymbols()
		cost, rerr := s.readDataBlockInto(buf, cc, name, fi, ext, l/k, l%k, true)
		if rerr != nil {
			return n, fmt.Errorf("hdfsraid: reading %q block %d: %w", name, g, rerr)
		}
		if cost > 0 {
			degraded = true
		}
		// Copy the slice of this block that intersects [off, off+want).
		blockStart := int64(g) * bs
		from := int64(0)
		if off > blockStart {
			from = off - blockStart
		}
		to := bs
		if blockStart+to > off+want {
			to = off + want - blockStart
		}
		n += copy(p[n:], buf[from:to])
	}
	if n < len(p) {
		return n, io.EOF
	}
	return n, nil
}
