package load

import (
	"errors"
	"math/rand/v2"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strconv"
	"strings"
	"sync/atomic"
	"testing"
	"time"
)

func TestPercentileExact(t *testing.T) {
	seq := func(n int) []float64 {
		s := make([]float64, n)
		for i := range s {
			s[i] = float64(i + 1)
		}
		rand.Shuffle(n, func(i, j int) { s[i], s[j] = s[j], s[i] })
		return s
	}
	cases := []struct {
		samples []float64
		p, want float64
	}{
		{seq(100), 50, 50},
		{seq(100), 99, 99},
		{seq(100), 100, 100},
		{seq(1000), 99, 990},
		{seq(1000), 99.9, 999},
		{seq(10), 50, 5},
		{seq(10), 99, 10},
		{seq(3), 50, 2},
		{[]float64{7.25}, 99, 7.25},
		{nil, 50, 0},
	}
	for _, c := range cases {
		if got := Percentile(c.samples, c.p); got != c.want {
			t.Errorf("p%v of %d samples = %v, want %v", c.p, len(c.samples), got, c.want)
		}
	}
}

func TestScheduleDeterministic(t *testing.T) {
	spec, err := Lookup("write-mix")
	if err != nil {
		t.Fatal(err)
	}
	files := Sizes(spec)
	a := Schedule(spec, files, 7, 1, 5*time.Second, 1<<20)
	b := Schedule(spec, files, 7, 1, 5*time.Second, 1<<20)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("the same seed gave two different op sequences")
	}
	c := Schedule(spec, files, 8, 1, 5*time.Second, 1<<20)
	if reflect.DeepEqual(a, c) {
		t.Fatal("another seed gave the same op sequence")
	}
	// The offered rate and the mix come out as specified, within
	// sampling error.
	ops := 0
	kinds := map[Kind]int{}
	for _, op := range a {
		kinds[op.Kind]++
		if op.Kind == KTriple {
			ops += 3
		} else {
			ops++
		}
	}
	if rate := float64(ops) / 5; rate < 0.85*spec.Rate || rate > 1.15*spec.Rate {
		t.Errorf("offered %.0f ops/s, want about %.0f", rate, spec.Rate)
	}
	if w := float64(3*kinds[KTriple]) / float64(ops); w < 0.15 || w > 0.25 {
		t.Errorf("write ops are %.2f of ops, want about %.2f", w, spec.WriteFrac)
	}
	if r := float64(kinds[KRange]) / float64(kinds[KRange]+kinds[KGet]); r < 0.25 || r > 0.35 {
		t.Errorf("ranged reads are %.2f of reads, want about %.2f", r, RangeFrac)
	}
}

func TestDigestChecks(t *testing.T) {
	body := Body(1, "f", 3*ChunkSize+100)
	d := NewDigest(body)
	if err := d.Check(body, 0); err != nil {
		t.Fatalf("whole body: %v", err)
	}
	if err := d.Check(body[ChunkSize:3*ChunkSize], ChunkSize); err != nil {
		t.Fatalf("aligned range: %v", err)
	}
	if err := d.Check(body[2*ChunkSize:], 2*ChunkSize); err != nil {
		t.Fatalf("range to the end: %v", err)
	}
	if err := d.Check(body[10:20], 10); err == nil {
		t.Fatal("a misaligned range passed")
	}
	for _, at := range []int{0, ChunkSize + 5, len(body) - 1} {
		bad := append([]byte(nil), body...)
		bad[at] ^= 0x01
		if d.Check(bad, 0) == nil {
			t.Errorf("whole body with byte %d flipped passed", at)
		}
		if at >= ChunkSize && d.Check(bad[ChunkSize:], ChunkSize) == nil {
			t.Errorf("range with byte %d flipped passed", at)
		}
	}
}

// fileServer serves one file under /files/f, whole or by range, after
// calling hook with the request's sequence number (from 0).
func fileServer(t *testing.T, body []byte, hook func(n int64, out []byte)) *httptest.Server {
	var seq atomic.Int64
	return httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		out := append([]byte(nil), body...)
		hook(seq.Add(1)-1, out)
		if rng := r.Header.Get("Range"); rng != "" {
			lo, hi, _ := strings.Cut(strings.TrimPrefix(rng, "bytes="), "-")
			a, _ := strconv.Atoi(lo)
			b, _ := strconv.Atoi(hi)
			w.WriteHeader(http.StatusPartialContent)
			w.Write(out[a : b+1])
			return
		}
		w.Write(out)
	}))
}

func oneFile(body []byte) *DataSet {
	return &DataSet{Digests: map[string]Digest{"f": NewDigest(body)}}
}

// A server that stalls once must show the stall in the latency of every
// request that fell due while it lasted, not just the one it held:
// open-loop latency runs from the due time (no coordinated omission).
func TestOpenLoopCountsStall(t *testing.T) {
	body := Body(1, "f", 2*ChunkSize)
	const stall = 300 * time.Millisecond
	srv := fileServer(t, body, func(n int64, _ []byte) {
		if n == 10 {
			time.Sleep(stall)
		}
	})
	defer srv.Close()
	c := NewClient(srv.URL, 1, oneFile(body), ChunkSize)
	defer c.Close()
	var ops []Op
	for i := 0; i < 60; i++ {
		ops = append(ops, Op{Due: time.Duration(i) * 10 * time.Millisecond, Kind: KGet, Name: "f"})
	}
	res := OpenLoop(ops, 1, c.Exec)
	if err := firstError(res.Samples); err != nil {
		t.Fatal(err)
	}
	slow, sendToDone := 0, 0
	for _, s := range res.Samples {
		if s.Latency() > 100*time.Millisecond {
			slow++
		}
		if s.Done-s.Sent > 100*time.Millisecond {
			sendToDone++
		}
	}
	// The stalled request was due at 100 ms and held the only
	// connection until about 400 ms; the ~20 requests due in between
	// waited behind it, and those due before 300 ms waited > 100 ms.
	if slow < 15 {
		t.Errorf("%d requests over 100 ms, want the stall to show in about 20", slow)
	}
	if sendToDone != 1 {
		t.Errorf("%d requests over 100 ms from send to done, want only the stalled one", sendToDone)
	}
}

func firstError(samples []Sample) error {
	for _, s := range samples {
		if s.Err != nil {
			return s.Err
		}
	}
	return nil
}

// One flipped byte in one response body must be caught as an
// integrity error, whole-file or ranged.
func TestFlippedByteFails(t *testing.T) {
	body := Body(2, "f", 3*ChunkSize)
	srv := fileServer(t, body, func(n int64, out []byte) {
		if n == 3 || n == 6 {
			out[ChunkSize+17] ^= 0x40
		}
	})
	defer srv.Close()
	c := NewClient(srv.URL, 1, oneFile(body), ChunkSize)
	defer c.Close()
	var ops []Op
	for i := 0; i < 5; i++ {
		ops = append(ops, Op{Kind: KGet, Name: "f"})
	}
	for i := 0; i < 5; i++ {
		ops = append(ops, Op{Kind: KRange, Name: "f", Off: ChunkSize})
	}
	samples, _ := ClosedLoop(len(ops), 1, time.Minute, func(w, i int, base time.Time, out []Sample) []Sample {
		return c.Exec(w, ops[i], base, time.Now(), out)
	})
	bad := 0
	for _, s := range samples {
		if s.Err != nil {
			if !errors.Is(s.Err, ErrIntegrity) {
				t.Errorf("unexpected error: %v", s.Err)
			}
			bad++
		}
	}
	n, first := c.IntegrityErrors()
	if bad != 2 || n != 2 || first == nil {
		t.Fatalf("caught %d bad samples, %d integrity errors (first %v); want 2", bad, n, first)
	}
}
