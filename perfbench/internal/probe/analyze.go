package probe

import (
	"cmp"
	"slices"
	"sort"
)

// Layers is what the spans of one time window say about each layer.
// Times are ns.
type Layers struct {
	// Handler spans: durations per op, their sum, and the most that
	// overlapped.
	Handler     map[string][]float64
	HandlerBusy int64
	InflightMax int

	// Block I/O: calls and bytes per op, busy time of reads (open to
	// close) and of writes, renames and removes; Covered is, summed
	// over requests, the time at least one of a request's block calls
	// was running — its parallel stripe reads counted once.
	BlockOps     map[string]int64
	ReadBytes    int64
	WriteBytes   int64
	ReadBusy     int64
	WriteBusy    int64
	BlockCovered int64

	// Heat touches: durations, their sum, and the sum over touches
	// made inside a request.
	Touches      []float64
	TouchBusy    int64
	TouchInCalls int64

	// Wire holds, per request the client also timed, its client-side
	// time minus its handler time.
	Wire []float64
}

// Analyze summarizes the spans that start in [from, to). client maps
// request ids to the time the client measured from send to the end of
// the body; requests found there also yield a wire time.
func Analyze(spans []Span, from, to int64, client map[uint64]int64) Layers {
	l := Layers{Handler: map[string][]float64{}, BlockOps: map[string]int64{}}
	children := map[uint64][][2]int64{}
	var edges [][2]int64 // (time, +1/-1) of handler spans
	for _, s := range spans {
		if s.Start < from || s.Start >= to {
			continue
		}
		d := s.Dur()
		switch s.Layer {
		case LayerServe:
			l.Handler[s.Op] = append(l.Handler[s.Op], float64(d))
			l.HandlerBusy += d
			edges = append(edges, [2]int64{s.Start, 1}, [2]int64{s.End, -1})
			if c, ok := client[s.ID]; ok {
				l.Wire = append(l.Wire, float64(c-d))
			}
		case LayerBlockIO:
			l.BlockOps[s.Op]++
			if s.Op == OpOpen {
				l.ReadBusy += d
				l.ReadBytes += s.Bytes
			} else {
				l.WriteBusy += d
				l.WriteBytes += s.Bytes
			}
			if s.Parent != 0 {
				children[s.Parent] = append(children[s.Parent], [2]int64{s.Start, s.End})
			}
		case LayerHeat:
			l.Touches = append(l.Touches, float64(d))
			l.TouchBusy += d
			if s.Parent != 0 {
				l.TouchInCalls += d
			}
		}
	}
	for _, iv := range children {
		l.BlockCovered += Union(iv)
	}
	// Ends sort before starts at the same instant, so back-to-back
	// requests do not count as overlapping.
	sort.Slice(edges, func(i, j int) bool {
		if edges[i][0] != edges[j][0] {
			return edges[i][0] < edges[j][0]
		}
		return edges[i][1] < edges[j][1]
	})
	in := 0
	for _, e := range edges {
		in += int(e[1])
		l.InflightMax = max(l.InflightMax, in)
	}
	return l
}

// Union returns the total length covered by a set of [start, end)
// intervals, overlaps counted once. It reorders iv.
func Union(iv [][2]int64) int64 {
	slices.SortFunc(iv, func(a, b [2]int64) int { return cmp.Compare(a[0], b[0]) })
	var total, curS, curE int64
	for i, x := range iv {
		if i == 0 || x[0] > curE {
			total += curE - curS
			curS, curE = x[0], x[1]
			continue
		}
		curE = max(curE, x[1])
	}
	return total + curE - curS
}
