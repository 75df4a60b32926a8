package probe

import (
	"io"
	"net/http"
	"os"
	"strconv"
	"strings"
)

// SpanHeader carries a request's span id from the client; the handler
// span is recorded under it.
const SpanHeader = "X-Bench-Span"

// BlockIO is a passthrough block-file layer that records a span per
// call. It makes the same os calls as the store's default layer and
// returns their errors unchanged, so errors.Is(err, fs.ErrNotExist)
// and the checksum verdicts above it — and so healing — behave as
// without it. Install it with Store.SetBlockIO.
type BlockIO struct{ Rec *Recorder }

// Open opens a block file for reading; its span runs from open to
// close and carries the bytes read.
func (b BlockIO) Open(path string) (io.ReadCloser, error) {
	start := now()
	f, err := os.Open(path)
	if err != nil {
		b.Rec.Add(Span{ID: b.Rec.NewID(), Parent: b.Rec.Parent(FileOfBlock(path)), Layer: LayerBlockIO, Op: OpOpen, Start: start, End: now()})
		return nil, err
	}
	return &timedFile{f: f, rec: b.Rec, path: path, start: start}, nil
}

// WriteFile writes a block frame.
func (b BlockIO) WriteFile(path string, data []byte, perm os.FileMode) error {
	start := now()
	err := os.WriteFile(path, data, perm)
	b.span(OpWrite, path, start, int64(len(data)))
	return err
}

// Rename moves a block file.
func (b BlockIO) Rename(oldPath, newPath string) error {
	start := now()
	err := os.Rename(oldPath, newPath)
	b.span(OpRename, newPath, start, 0)
	return err
}

// Remove deletes a block file.
func (b BlockIO) Remove(path string) error {
	start := now()
	err := os.Remove(path)
	b.span(OpRemove, path, start, 0)
	return err
}

func (b BlockIO) span(op, path string, start, n int64) {
	b.Rec.Add(Span{ID: b.Rec.NewID(), Parent: b.Rec.Parent(FileOfBlock(path)), Layer: LayerBlockIO, Op: op, Start: start, End: now(), Bytes: n})
}

// timedFile counts the bytes read from a block file and records the
// open span when it is closed.
type timedFile struct {
	f     *os.File
	rec   *Recorder
	path  string
	start int64
	n     int64
}

func (t *timedFile) Read(p []byte) (int, error) {
	n, err := t.f.Read(p)
	t.n += int64(n)
	return n, err
}

func (t *timedFile) Close() error {
	err := t.f.Close()
	t.rec.Add(Span{ID: t.rec.NewID(), Parent: t.rec.Parent(FileOfBlock(t.path)), Layer: LayerBlockIO, Op: OpOpen, Start: t.start, End: now(), Bytes: t.n})
	return err
}

// Heat wraps a store's OnReadExtent hook, recording a span per touch.
func Heat(rec *Recorder, touch func(name string, ext int)) func(name string, ext int) {
	return func(name string, ext int) {
		start := now()
		touch(name, ext)
		rec.Add(Span{ID: rec.NewID(), Parent: rec.Parent(name), Layer: LayerHeat, Op: OpTouch, Start: start, End: now()})
	}
}

// Handler wraps the serve handler: every /files/{name} request gets a
// handler span under the id in the client's span header (or a fresh
// one), and is the active span on its name while it runs.
type Handler struct {
	Rec  *Recorder
	Next http.Handler
}

// ServeHTTP times the request.
func (h *Handler) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	name, isFile := strings.CutPrefix(r.URL.Path, "/files/")
	if !isFile || name == "" {
		h.Next.ServeHTTP(w, r)
		return
	}
	id, err := strconv.ParseUint(r.Header.Get(SpanHeader), 10, 64)
	if err != nil || id == 0 {
		id = h.Rec.NewID()
	}
	op := "other"
	switch r.Method {
	case http.MethodGet:
		op = "get"
		if r.Header.Get("Range") != "" {
			op = "range"
		}
	case http.MethodPut:
		op = "put"
	case http.MethodDelete:
		op = "delete"
	}
	h.Rec.Enter(name, id)
	start := now()
	h.Next.ServeHTTP(w, r)
	end := now()
	h.Rec.Leave(name, id)
	h.Rec.Add(Span{ID: id, Layer: LayerServe, Op: op, Start: start, End: end})
}
