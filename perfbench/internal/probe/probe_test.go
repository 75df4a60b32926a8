package probe

import (
	"bytes"
	"errors"
	"io"
	"io/fs"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"testing"

	_ "repro/internal/code/polygon"
	"repro/internal/hdfsraid"
)

// The timing layer returns the default layer's errors unchanged, so
// fs.ErrNotExist verdicts survive it.
func TestBlockIOErrorsMatchDefault(t *testing.T) {
	b := BlockIO{Rec: NewRecorder(100)}
	missing := filepath.Join(t.TempDir(), "f.0.1")
	_, osErr := os.Open(missing)
	_, err := b.Open(missing)
	if !errors.Is(err, fs.ErrNotExist) || err.Error() != osErr.Error() {
		t.Errorf("Open: got %v, os.Open gives %v", err, osErr)
	}
	if err := b.Remove(missing); !errors.Is(err, fs.ErrNotExist) {
		t.Errorf("Remove: got %v", err)
	}
	if err := b.Rename(missing, missing+".x"); !errors.Is(err, fs.ErrNotExist) {
		t.Errorf("Rename: got %v", err)
	}
	if err := b.WriteFile(filepath.Join(missing, "sub"), nil, 0o644); err == nil {
		t.Error("WriteFile under a missing directory succeeded")
	}
	if n := len(b.Rec.Spans()); n != 4 {
		t.Errorf("recorded %d spans, want one per call", n)
	}
}

// damagedRead stores a file, kills node 0, corrupts one replica on
// another node, reads the file back, and returns the bytes and the
// store's inline heal count.
func damagedRead(t *testing.T, bio hdfsraid.BlockIO) ([]byte, int64) {
	st, err := hdfsraid.Create(t.TempDir(), "pentagon", 4096)
	if err != nil {
		t.Fatal(err)
	}
	if bio != nil {
		st.SetBlockIO(bio)
	}
	data := bytes.Repeat([]byte("0123456789abcdef"), 5000)
	if err := st.Put("f", data); err != nil {
		t.Fatal(err)
	}
	if err := st.KillNode(0); err != nil {
		t.Fatal(err)
	}
	p := st.Code().Placement()
	for sym, nodes := range p.SymbolNodes {
		if nodes[0] != 0 && nodes[1] != 0 {
			if err := st.CorruptBlock(nodes[0], "f", 0, sym); err != nil {
				t.Fatal(err)
			}
			break
		}
	}
	got, err := st.Get("f")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, data) {
		t.Fatal("damaged read returned wrong bytes")
	}
	rep, err := st.Fsck()
	if err != nil || !rep.Healthy() {
		t.Fatalf("fsck after the healing read: %+v, %v", rep, err)
	}
	return got, st.Obs().Snapshot().Counters["read_heal_total"]
}

// With the timing layer installed, a read over a dead node and a
// corrupt replica decodes and heals exactly as with the default.
func TestBlockIOKeepsHealing(t *testing.T) {
	_, plain := damagedRead(t, nil)
	rec := NewRecorder(1 << 16)
	_, timed := damagedRead(t, BlockIO{Rec: rec})
	if plain == 0 || timed != plain {
		t.Fatalf("inline heals: %d with the timing layer, %d without; want equal and nonzero", timed, plain)
	}
	ops := map[string]int{}
	for _, s := range rec.Spans() {
		ops[s.Op]++
	}
	if ops[OpOpen] == 0 || ops[OpWrite] == 0 || ops[OpRename] == 0 {
		t.Errorf("span ops %v: want opens, writes and the heal's renames", ops)
	}
}

// Child spans made while a request runs carry its span id: the one the
// client sent, or a fresh one.
func TestChildSpansCarryParent(t *testing.T) {
	dir := t.TempDir()
	block := filepath.Join(dir, "node-00", "f.x0.0.1")
	if err := os.MkdirAll(filepath.Dir(block), 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(block, []byte("frame"), 0o644); err != nil {
		t.Fatal(err)
	}
	rec := NewRecorder(100)
	bio := BlockIO{Rec: rec}
	touch := Heat(rec, func(string, int) {})
	h := &Handler{Rec: rec, Next: http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		touch("f", 0)
		rc, err := bio.Open(block)
		if err != nil {
			t.Error(err)
			return
		}
		io.Copy(w, rc)
		rc.Close()
	})}
	srv := httptest.NewServer(h)
	defer srv.Close()
	for _, hdr := range []string{"42", ""} {
		req, _ := http.NewRequest(http.MethodGet, srv.URL+"/files/f", nil)
		if hdr != "" {
			req.Header.Set(SpanHeader, hdr)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
	}
	spans := rec.Spans()
	var handlers []Span
	children := map[uint64]int{}
	for _, s := range spans {
		if s.Layer == LayerServe {
			handlers = append(handlers, s)
		} else {
			children[s.Parent]++
		}
	}
	if len(handlers) != 2 || handlers[0].ID != 42 || handlers[1].ID < childIDBase {
		t.Fatalf("handler spans %+v: want ids 42 and a fresh one", handlers)
	}
	for _, hs := range handlers {
		if children[hs.ID] != 2 {
			t.Errorf("request %d has %d child spans, want its block read and heat touch", hs.ID, children[hs.ID])
		}
	}
}

// When requests on one name overlap, a request that leaves first does
// not take the parent away from one still running, and the recorder
// counts the children it could not attribute alone.
func TestOverlappingRequestsKeepParent(t *testing.T) {
	rec := NewRecorder(100)
	rec.Enter("f", 1)
	rec.Enter("f", 2)
	if p := rec.Parent("f"); p != 2 {
		t.Errorf("both running: parent %d, want the latest, 2", p)
	}
	rec.Leave("f", 2)
	if p := rec.Parent("f"); p != 1 {
		t.Errorf("after the later request left: parent %d, want 1", p)
	}
	rec.Enter("f", 3)
	rec.Leave("f", 1)
	if p := rec.Parent("f"); p != 3 {
		t.Errorf("after the earlier request left: parent %d, want 3", p)
	}
	rec.Leave("f", 3)
	if p := rec.Parent("f"); p != 0 {
		t.Errorf("no request running: parent %d, want 0", p)
	}
	if orphans, shared := rec.Attribution(); orphans != 1 || shared != 1 {
		t.Errorf("attribution: %d orphans, %d shared; want 1 and 1", orphans, shared)
	}
}

func TestAnalyze(t *testing.T) {
	spans := []Span{
		{ID: 1, Layer: LayerServe, Op: "get", Start: 0, End: 100},
		{ID: 2, Layer: LayerServe, Op: "put", Start: 50, End: 150},
		{ID: 10, Parent: 1, Layer: LayerBlockIO, Op: OpOpen, Start: 10, End: 30, Bytes: 7},
		{ID: 11, Parent: 1, Layer: LayerBlockIO, Op: OpOpen, Start: 20, End: 40, Bytes: 7},
		{ID: 12, Parent: 1, Layer: LayerBlockIO, Op: OpOpen, Start: 50, End: 60, Bytes: 7},
		{ID: 13, Parent: 2, Layer: LayerBlockIO, Op: OpWrite, Start: 60, End: 90, Bytes: 9},
		{ID: 14, Parent: 1, Layer: LayerHeat, Op: OpTouch, Start: 2, End: 7},
		{ID: 15, Layer: LayerHeat, Op: OpTouch, Start: 8, End: 9},
		{ID: 3, Layer: LayerServe, Op: "get", Start: 500, End: 600}, // outside the window
	}
	l := Analyze(spans, 0, 400, map[uint64]int64{1: 130})
	check := func(name string, got, want int64) {
		if got != want {
			t.Errorf("%s = %d, want %d", name, got, want)
		}
	}
	check("handler busy", l.HandlerBusy, 200)
	check("inflight max", int64(l.InflightMax), 2)
	check("block covered", l.BlockCovered, 40+30)
	check("read busy", l.ReadBusy, 50)
	check("write busy", l.WriteBusy, 30)
	check("read bytes", l.ReadBytes, 21)
	check("write bytes", l.WriteBytes, 9)
	check("touches in calls", l.TouchInCalls, 5)
	check("touch busy", l.TouchBusy, 6)
	check("opens", l.BlockOps[OpOpen], 3)
	if len(l.Wire) != 1 || l.Wire[0] != 30 {
		t.Errorf("wire = %v, want [30]", l.Wire)
	}
	if len(l.Handler["get"]) != 1 || len(l.Handler["put"]) != 1 {
		t.Errorf("handler durations %v", l.Handler)
	}
}

func TestUnion(t *testing.T) {
	cases := []struct {
		iv   [][2]int64
		want int64
	}{
		{nil, 0},
		{[][2]int64{{0, 10}}, 10},
		{[][2]int64{{5, 10}, {0, 3}}, 8},
		{[][2]int64{{0, 10}, {2, 4}, {9, 12}}, 12},
		{[][2]int64{{0, 5}, {5, 8}}, 8},
	}
	for _, c := range cases {
		if got := Union(c.iv); got != c.want {
			t.Errorf("Union(%v) = %d, want %d", c.iv, got, c.want)
		}
	}
}

func TestFileOfBlock(t *testing.T) {
	for path, want := range map[string]string{
		"/s/shard-01/node-03/r00012.x1.0.4":    "r00012",
		"/s/shard-01/node-03/w1-000007.2.3":    "w1-000007",
		"/s/shard-01/node-03/r00012.x0.0.4.tc": "r00012",
		"r9":                                   "r9",
	} {
		if got := FileOfBlock(path); got != want {
			t.Errorf("FileOfBlock(%q) = %q, want %q", path, got, want)
		}
	}
}
