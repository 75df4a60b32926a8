package serve

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/faultfs"
	"repro/internal/hdfsraid"
)

// streamBlock is the block size of the streaming tests' stores. A
// pentagon stripe holds 9 data blocks, 144 KiB: more than the GET
// stream's write buffer, so a stripe's bytes reach the client before
// the next stripe is read.
const streamBlock = 16 << 10

// newStreamServer opens one pentagon shard of streamBlock blocks and
// stores name with stripes full stripes of content.
func newStreamServer(t *testing.T, name string, stripes int) (*Server, *httptest.Server, []byte) {
	t.Helper()
	root := t.TempDir()
	if err := CreateShards(root, "pentagon", streamBlock, 0, 1); err != nil {
		t.Fatal(err)
	}
	srv, err := Open(root, Config{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close() })
	data := content(name, stripes*srv.Shard(0).Code().DataSymbols()*streamBlock)
	if err := srv.Put(name, bytes.NewReader(data)); err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)
	return srv, ts, data
}

// TestStreamedGetAllocatesUnderAStripe: a whole-file GET streams, so
// serving a 4-stripe file allocates less than one stripe's bytes on
// both ends of the connection together, where a buffered GET would
// allocate the whole file.
func TestStreamedGetAllocatesUnderAStripe(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector allocates, and sync.Pool drops recycles under it")
	}
	srv, ts, data := newStreamServer(t, "big.dat", 4)
	stripe := uint64(srv.Shard(0).Code().DataSymbols() * streamBlock)
	body := make([]byte, len(data))
	get := func() {
		resp, err := http.Get(ts.URL + "/files/big.dat")
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("status %d", resp.StatusCode)
		}
		if _, err := io.ReadFull(resp.Body, body); err != nil {
			t.Fatal(err)
		}
		if n, _ := resp.Body.Read(make([]byte, 1)); n != 0 {
			t.Fatal("body longer than the file")
		}
	}
	get() // warm the pools and the connection
	if !bytes.Equal(body, data) {
		t.Fatal("GET returned wrong bytes")
	}
	const rounds = 8
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < rounds; i++ {
		get()
	}
	runtime.ReadMemStats(&after)
	if per := (after.TotalAlloc - before.TotalAlloc) / rounds; per >= stripe {
		t.Fatalf("a GET of a %d-byte file allocated %d bytes, want under one stripe (%d)", len(data), per, stripe)
	}
}

// tripIO passes block I/O to a fault injector and runs trip just
// before the open after the first after opens.
type tripIO struct {
	*faultfs.FS
	after int64
	opens atomic.Int64
	trip  func()
}

func (t *tripIO) Open(path string) (io.ReadCloser, error) {
	if t.opens.Add(1) == t.after+1 {
		t.trip()
	}
	return t.FS.Open(path)
}

// TestStreamedGetFailureAfterFirstByte: a stripe that turns out
// unrecoverable after the first stripe's bytes went out aborts the
// response, so the client sees a truncated body — never a complete
// one. A failure in the first stripe, before any byte, is still an
// ordinary 500 carrying the error.
func TestStreamedGetFailureAfterFirstByte(t *testing.T) {
	srv, ts, data := newStreamServer(t, "f.dat", 3)
	st := srv.Shard(0)
	k := st.Code().DataSymbols()
	ffs := faultfs.New(faultfs.Config{Seed: 1})
	downAll := func() {
		// Three of pentagon's five nodes: beyond its tolerance of two.
		for _, v := range []int{0, 1, 2} {
			ffs.SetNodeDown(v, true)
		}
	}
	// The intact first stripe takes k opens; the outage starts with
	// the second stripe's first.
	st.SetBlockIO(&tripIO{FS: ffs, after: int64(k), trip: downAll})

	resp, err := http.Get(ts.URL + "/files/f.dat")
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d, want 200: the first stripe was intact", resp.StatusCode)
	}
	got, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if !errors.Is(err, io.ErrUnexpectedEOF) {
		t.Fatalf("body read ended with %v after %d of %d bytes, want io.ErrUnexpectedEOF", err, len(got), len(data))
	}
	if len(got) == 0 || len(got) >= len(data) || !bytes.Equal(got, data[:len(got)]) {
		t.Fatalf("client got %d bytes, want a proper prefix of the %d-byte file", len(got), len(data))
	}

	// Now the outage is already on: the first stripe fails before any
	// byte is written.
	resp, err = http.Get(ts.URL + "/files/f.dat")
	if err != nil {
		t.Fatal(err)
	}
	msg, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusInternalServerError {
		t.Fatalf("first-stripe failure: status %d, want 500", resp.StatusCode)
	}
	if !strings.Contains(string(msg), `decoding "f.dat" extent 0 stripe 0`) {
		t.Fatalf("first-stripe failure body %q does not carry the error", msg)
	}
}

// TestStreamedGetReshardFallback: during a reshard a whole-file GET of
// a name still on its old-ring shard streams from there byte-exact,
// and a double miss for a mid-move name answers 503 + Retry-After.
func TestStreamedGetReshardFallback(t *testing.T) {
	srv := newServer(t, 2)
	var stored []string
	for i := 0; i < 32; i++ {
		name := fmt.Sprintf("fb-%02d.dat", i)
		if err := srv.Put(name, bytes.NewReader(content(name, 3*testBlock))); err != nil {
			t.Fatal(err)
		}
		stored = append(stored, name)
	}
	moved := movingName(t, 2, 3, stored)
	if err := srv.Grow(3); err != nil {
		t.Fatal(err)
	}
	midMove := map[string]bool{}
	srv.BeginResharding(2, func(name string) bool { return midMove[name] })
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	resp, err := http.Get(ts.URL + "/files/" + moved)
	if err != nil {
		t.Fatal(err)
	}
	got, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil || resp.StatusCode != http.StatusOK || !bytes.Equal(got, content(moved, 3*testBlock)) {
		t.Fatalf("fallback GET: status %d, %d bytes, err %v; want 200 and the file", resp.StatusCode, len(got), err)
	}
	// The handler counts the fallback after the body's last byte is
	// out, so the client may get there first.
	fallbacks := srv.Obs().Counter("reshard_fallback_reads_total")
	for deadline := time.Now().Add(5 * time.Second); fallbacks.Value() == 0 && time.Now().Before(deadline); {
		time.Sleep(time.Millisecond)
	}
	if n := fallbacks.Value(); n != 1 {
		t.Fatalf("reshard_fallback_reads_total = %d, want 1", n)
	}

	var gone string
	for i := 0; gone == ""; i++ {
		if name := fmt.Sprintf("fb-gone-%d.dat", i); NewRing(2, 0).Shard(name) != NewRing(3, 0).Shard(name) {
			gone = name
		}
	}
	midMove[gone] = true
	resp, err = http.Get(ts.URL + "/files/" + gone)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable || resp.Header.Get("Retry-After") == "" {
		t.Fatalf("mid-move GET: status %d, Retry-After %q; want 503 with Retry-After", resp.StatusCode, resp.Header.Get("Retry-After"))
	}
	if _, err := srv.Get(gone); !errors.Is(err, ErrMidMove) {
		t.Fatalf("mid-move Get: %v, want ErrMidMove", err)
	}
	if _, err := srv.Get("fb-nowhere.dat"); !errors.Is(err, hdfsraid.ErrNotFound) {
		t.Fatalf("absent name: %v, want ErrNotFound", err)
	}
}
