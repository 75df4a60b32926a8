package hdfsraid

import (
	"bytes"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sync/atomic"
	"testing"

	"repro/internal/tune"
)

// countingIO is a BlockIO that counts block-file opens.
type countingIO struct {
	BlockIO
	opens atomic.Int64
}

func (c *countingIO) Open(path string) (io.ReadCloser, error) {
	c.opens.Add(1)
	return c.BlockIO.Open(path)
}

// countOpens installs a counting BlockIO on s and returns it.
func countOpens(s *Store) *countingIO {
	c := &countingIO{BlockIO: osBlockIO{}}
	s.SetBlockIO(c)
	return c
}

// getExact reads name back and fails the test unless it equals want.
func getExact(t *testing.T, s *Store, name string, want []byte) {
	t.Helper()
	got, err := s.Get(name)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("Get(%q) returned wrong bytes", name)
	}
}

// TestGetIntactOpensDataBlocksOnly: an intact whole-file Get opens one
// replica of each data block the file holds, and nothing else: no
// parity frame and no zero-padding block of a short last stripe.
func TestGetIntactOpensDataBlocksOnly(t *testing.T) {
	for _, blocks := range []int{1, 10} {
		s := newStore(t, "pentagon")
		data := randomFile(t, blocks*blockSize-7, int64(blocks))
		if err := s.Put("f", data); err != nil {
			t.Fatal(err)
		}
		c := countOpens(s)
		getExact(t, s, "f", data)
		if got := c.opens.Load(); got != int64(blocks) {
			t.Errorf("intact Get of a %d-block file opened %d frames, want %d", blocks, got, blocks)
		}
		if s.obs.getDegraded.Count() != 0 || s.obs.getIntact.Count() != 1 {
			t.Errorf("intact Get landed in the degraded histogram")
		}
	}
}

// TestGetIgnoresParityDamage: a corrupt or missing parity replica
// neither fails nor slows an intact Get. Reads never open parity, so
// the damage is left for scrub to find.
func TestGetIgnoresParityDamage(t *testing.T) {
	s := newStore(t, "pentagon")
	k := s.Code().DataSymbols()
	data := randomFile(t, k*blockSize, 3)
	if err := s.Put("f", data); err != nil {
		t.Fatal(err)
	}
	parity := s.Code().Placement().SymbolNodes[k]
	if err := s.CorruptBlock(parity[0], "f", 0, k); err != nil {
		t.Fatal(err)
	}
	if err := os.Remove(s.blockPath(parity[1], "f", 0, k)); err != nil {
		t.Fatal(err)
	}
	c := countOpens(s)
	getExact(t, s, "f", data)
	if got := c.opens.Load(); got != int64(k) {
		t.Errorf("Get opened %d frames with parity damaged, want %d", got, k)
	}
	if got := s.obs.readHeal.Value(); got != 0 {
		t.Errorf("read_heal_total = %d, want 0: reads never see parity", got)
	}
	if s.obs.getDegraded.Count() != 0 {
		t.Error("parity damage made an intact Get count as degraded")
	}
	rep, err := s.Fsck()
	if err != nil {
		t.Fatal(err)
	}
	if rep.Corrupt != 1 || rep.Missing != 1 {
		t.Errorf("fsck = %+v, want the parity damage still there for scrub", rep)
	}
}

// TestGetFallsBackToDecode: with both replicas of a data block lost,
// Get reads the rest of the stripe and decodes it. It returns the
// right bytes, counts as degraded, and heals both lost replicas.
func TestGetFallsBackToDecode(t *testing.T) {
	s := newStore(t, "pentagon")
	k := s.Code().DataSymbols()
	// Two stripes, the second short: the fallback must also read the
	// short stripe's padding blocks to decode it.
	data := randomFile(t, (k+3)*blockSize-11, 4)
	if err := s.Put("f", data); err != nil {
		t.Fatal(err)
	}
	for _, v := range s.Code().Placement().SymbolNodes[1] {
		if err := os.Remove(s.blockPath(v, "f", 1, 1)); err != nil {
			t.Fatal(err)
		}
	}
	c := countOpens(s)
	getExact(t, s, "f", data)
	if c.opens.Load() <= int64(k+3) {
		t.Errorf("Get opened %d frames, want more than the %d data blocks: the lost block needs a decode", c.opens.Load(), k+3)
	}
	if got := s.obs.getDegraded.Count(); got != 1 {
		t.Errorf("store_get_degraded_ns count = %d, want 1", got)
	}
	if got := s.obs.readHeal.Value(); got != 2 {
		t.Errorf("read_heal_total = %d, want 2 (both lost replicas)", got)
	}
	rep, err := s.Fsck()
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Healthy() {
		t.Fatalf("store not healthy after the healing Get: %+v", rep)
	}
}

// TestGetHealsDamagedStripe: a stripe whose data replicas show damage
// is read in full, so one Get over a dead node heals the stripe's
// padding and parity replicas on that node too, even though no data
// block needed a decode.
func TestGetHealsDamagedStripe(t *testing.T) {
	s := newStore(t, "pentagon")
	k := s.Code().DataSymbols()
	data := randomFile(t, (k+2)*blockSize, 5) // second stripe: 2 data blocks, 7 padding
	if err := s.Put("f", data); err != nil {
		t.Fatal(err)
	}
	if err := s.KillNode(0); err != nil {
		t.Fatal(err)
	}
	getExact(t, s, "f", data)
	if s.obs.getDegraded.Count() != 0 {
		t.Error("a Get with a live replica of every data block counted as degraded")
	}
	rep, err := s.Fsck()
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Healthy() {
		t.Fatalf("store not healthy after a Get over the dead node: %+v", rep)
	}
}

// TestReadAtFullStripeFallback: on heptagon-local, losing three nodes
// of one heptagon leaves data symbols with no replica and no partial-
// parity read plan. ReadAt falls back to a full-stripe decode, serves
// every block byte-exact, and Repair then restores a healthy store.
func TestReadAtFullStripeFallback(t *testing.T) {
	s := newStore(t, "heptagon-local")
	k := s.Code().DataSymbols()
	data := randomFile(t, (k+5)*blockSize-9, 6)
	if err := s.Put("f", data); err != nil {
		t.Fatal(err)
	}
	killed := []int{0, 1, 2}
	for _, v := range killed {
		if err := s.KillNode(v); err != nil {
			t.Fatal(err)
		}
	}
	for off := 0; off < len(data); off += blockSize {
		p := make([]byte, min(blockSize, len(data)-off))
		if _, err := s.ReadAt(p, "f", int64(off)); err != nil {
			t.Fatalf("ReadAt block %d: %v", off/blockSize, err)
		}
		if !bytes.Equal(p, data[off:off+len(p)]) {
			t.Fatalf("ReadAt block %d: wrong bytes", off/blockSize)
		}
	}
	if _, err := s.Repair(killed); err != nil {
		t.Fatal(err)
	}
	rep, err := s.Fsck()
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Healthy() {
		t.Fatalf("store not healthy after repair: %+v", rep)
	}
	getExact(t, s, "f", data)
}

// TestBlockPathMatchesJoin: the appended block paths are byte-identical
// to the filepath.Join + Sprintf form the on-disk layout was defined
// by, for odd names, odd roots and one- and two-digit nodes.
func TestBlockPathMatchesJoin(t *testing.T) {
	t.Chdir(t.TempDir())
	if err := os.Mkdir("a", 0o755); err != nil {
		t.Fatal(err)
	}
	for _, root := range []string{"store", "./a/../b/", "rel/./x//", filepath.Join(t.TempDir(), "s") + "/"} {
		s, err := Create(root, "pentagon", blockSize)
		if err != nil {
			t.Fatal(err)
		}
		for _, name := range []string{"f", ".", "..", "a.b", "héllo-世界.txt", "a/../b", "x/"} {
			for _, v := range []int{0, 9, 10, 14} {
				dir := filepath.Join(root, fmt.Sprintf("node-%02d", v))
				if got := s.nodeDir(v); got != dir {
					t.Errorf("nodeDir(%d) under %q = %q, want %q", v, root, got, dir)
				}
				flat := filepath.Join(dir, fmt.Sprintf("%s.%d.%d", name, 12, 3))
				if got := s.extentBlockPath(v, name, FileInfo{}, 2, 12, 3); got != flat {
					t.Errorf("flat path = %q, want %q", got, flat)
				}
				ext := filepath.Join(dir, fmt.Sprintf("%s.x%d.%d.%d", name, 2, 12, 3))
				if got := s.extentBlockPath(v, name, FileInfo{ExtentPaths: true}, 2, 12, 3); got != ext {
					t.Errorf("extent path = %q, want %q", got, ext)
				}
			}
		}
		if raceEnabled {
			continue // the race detector adds allocations of its own
		}
		fi := FileInfo{ExtentPaths: true}
		if n := testing.AllocsPerRun(50, func() { s.extentBlockPath(14, "name", fi, 3, 120, 11) }); n != 1 {
			t.Errorf("extentBlockPath allocates %v times, want 1", n)
		}
	}
}

// oneDecodeWorker is a calibration pinning code's decode and repair
// pools to one worker.
func oneDecodeWorker(code string) *tune.Params {
	return &tune.Params{Codes: map[string]tune.CodeTune{code: {DecodeWorkers: 1}}}
}
