// Package probe is the benchmark server's tracing: a span recorder
// kept in memory and written out at exit, and wrappers that time the
// calls crossing each layer boundary from outside the program — the
// serve handler, the store's BlockIO seam and its OnReadExtent heat
// hook. Analyze turns the recorded spans into per-layer figures.
package probe

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// Layers and ops a span can carry.
const (
	LayerServe   = "serve"
	LayerBlockIO = "blockio"
	LayerHeat    = "heat"

	OpOpen   = "open" // block read: open, read, close
	OpWrite  = "write"
	OpRename = "rename"
	OpRemove = "remove"
	OpTouch  = "touch"
)

// Span is one timed call at a layer boundary. Handler spans carry the
// id the client sent; a child span carries its parent's id.
type Span struct {
	ID     uint64 `json:"id"`
	Parent uint64 `json:"parent,omitempty"`
	Layer  string `json:"layer"`
	Op     string `json:"op"`
	Start  int64  `json:"start"` // Unix ns
	End    int64  `json:"end"`
	Bytes  int64  `json:"bytes,omitempty"`
}

// Dur is the span's duration in ns.
func (s Span) Dur() int64 { return s.End - s.Start }

// childIDBase starts the ids the recorder assigns, far above the ids
// a client numbers its requests with.
const childIDBase = 1 << 48

// Recorder keeps spans in memory, up to a cap, and tracks which
// request spans are active on each file name so child spans can name
// their parent.
type Recorder struct {
	ids     atomic.Uint64
	max     int
	dropped atomic.Int64

	mu    sync.Mutex
	spans []Span

	actMu  sync.Mutex
	active map[string][]uint64 // per name, in the order they entered
	// orphans counts child spans made while no request ran on their
	// name; shared, those made while more than one did.
	orphans, shared atomic.Int64
}

// NewRecorder returns a recorder keeping at most max spans.
func NewRecorder(max int) *Recorder {
	r := &Recorder{max: max, active: map[string][]uint64{}}
	r.ids.Store(childIDBase)
	return r
}

// NewID returns a fresh span id.
func (r *Recorder) NewID() uint64 { return r.ids.Add(1) }

// Add records a span.
func (r *Recorder) Add(s Span) {
	r.mu.Lock()
	if len(r.spans) < r.max {
		r.spans = append(r.spans, s)
		r.mu.Unlock()
		return
	}
	r.mu.Unlock()
	r.dropped.Add(1)
}

// Spans returns a copy of the recorded spans.
func (r *Recorder) Spans() []Span {
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]Span(nil), r.spans...)
}

// Dropped returns how many spans the cap turned away.
func (r *Recorder) Dropped() int64 { return r.dropped.Load() }

// Enter marks request span id as active on a file name, and Leave
// ends that. When requests on one name overlap, children made while
// more than one runs are attributed to the latest that entered and is
// still running, and counted as shared.
func (r *Recorder) Enter(name string, id uint64) {
	r.actMu.Lock()
	r.active[name] = append(r.active[name], id)
	r.actMu.Unlock()
}

// Leave removes id from name's active spans, wherever it stands.
func (r *Recorder) Leave(name string, id uint64) {
	r.actMu.Lock()
	defer r.actMu.Unlock()
	ids := r.active[name]
	for i := len(ids) - 1; i >= 0; i-- {
		if ids[i] == id {
			ids = append(ids[:i], ids[i+1:]...)
			break
		}
	}
	if len(ids) == 0 {
		delete(r.active, name)
		return
	}
	r.active[name] = ids
}

// Parent returns the request span a child span on a file name belongs
// to, or 0 when no request runs on it.
func (r *Recorder) Parent(name string) uint64 {
	r.actMu.Lock()
	defer r.actMu.Unlock()
	ids := r.active[name]
	switch len(ids) {
	case 0:
		r.orphans.Add(1)
		return 0
	case 1:
	default:
		r.shared.Add(1)
	}
	return ids[len(ids)-1]
}

// Attribution returns how many child spans had no request active on
// their name (orphans) and how many had more than one (shared).
func (r *Recorder) Attribution() (orphans, shared int64) {
	return r.orphans.Load(), r.shared.Load()
}

// FileOfBlock returns the file name a block path belongs to: the base
// name up to its first dot. Benchmark file names hold no dots.
func FileOfBlock(path string) string {
	base := path[strings.LastIndexByte(path, '/')+1:]
	if i := strings.IndexByte(base, '.'); i >= 0 {
		return base[:i]
	}
	return base
}

// now is the span clock: wall time in Unix ns, shared by the server
// and the generator on one host.
func now() int64 { return time.Now().UnixNano() }

// WriteFile writes spans as JSON lines.
func WriteFile(path string, spans []Span) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// ReadFile reads spans written by WriteFile.
func ReadFile(path string) ([]Span, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var spans []Span
	dec := json.NewDecoder(bufio.NewReader(f))
	for dec.More() {
		var s Span
		if err := dec.Decode(&s); err != nil {
			return nil, fmt.Errorf("reading spans %s: %w", path, err)
		}
		spans = append(spans, s)
	}
	return spans, nil
}
