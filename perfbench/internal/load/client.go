package load

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"repro/perfbench/internal/probe"
)

// ErrIntegrity marks a read that returned bytes other than those
// stored: the one outcome the benchmark never tolerates.
var ErrIntegrity = errors.New("integrity error")

// Client sends the benchmark's requests to one server and checks every
// body it reads against the data set's digests.
type Client struct {
	base string
	http *http.Client
	ds   *DataSet
	// rangeLen is the length of the ranged reads Exec sends.
	rangeLen int
	ids      atomic.Uint64
	bufs     [][]byte // one read buffer per worker

	integrity atomic.Int64
	mu        sync.Mutex
	firstBad  error
}

// NewClient returns a client for the server at base ("http://host:port")
// using at most conns connections, one per worker. Ranged reads in
// schedules are rangeLen bytes long.
func NewClient(base string, conns int, ds *DataSet, rangeLen int) *Client {
	tr := &http.Transport{
		MaxConnsPerHost:     conns,
		MaxIdleConnsPerHost: conns,
		DisableCompression:  true,
	}
	return &Client{base: base, http: &http.Client{Transport: tr}, ds: ds, rangeLen: rangeLen, bufs: make([][]byte, conns)}
}

// Close releases the client's idle connections.
func (c *Client) Close() { c.http.CloseIdleConnections() }

// IntegrityErrors returns how many reads returned wrong bytes, and the
// first such error.
func (c *Client) IntegrityErrors() (int64, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.integrity.Load(), c.firstBad
}

func (c *Client) badBytes(err error) error {
	c.integrity.Add(1)
	c.mu.Lock()
	if c.firstBad == nil {
		c.firstBad = err
	}
	c.mu.Unlock()
	return err
}

// Exec runs one schedule entry; it is an Exec.
func (c *Client) Exec(w int, op Op, base, due time.Time, out []Sample) []Sample {
	switch op.Kind {
	case KGet:
		return append(out, c.Read(w, base, due, op.Name, 0, -1))
	case KRange:
		return append(out, c.Read(w, base, due, op.Name, op.Off, c.rangeLen))
	case KTriple:
		body, dig := c.ds.WriteBodies[op.Body], c.ds.WriteDigests[op.Body]
		s := c.Put(base, due, op.Name, body)
		out = append(out, s)
		if s.Err != nil {
			return out
		}
		g := c.read(w, base, time.Now(), op.Name, 0, -1, dig)
		out = append(out, g)
		return append(out, c.Delete(base, time.Now(), op.Name))
	}
	return append(out, Sample{Kind: op.Kind, Err: fmt.Errorf("unknown op kind %v", op.Kind)})
}

// Read GETs a preload file: the whole file when n < 0, otherwise a
// ranged read of n bytes at off, clamped to the file's end. The body
// is checked against the file's digest.
func (c *Client) Read(w int, base, due time.Time, name string, off, n int) Sample {
	dig, ok := c.ds.Digests[name]
	if !ok {
		return Sample{Kind: KGet, Err: fmt.Errorf("no digest for %q", name)}
	}
	return c.read(w, base, due, name, off, n, dig)
}

func (c *Client) read(w int, base, due time.Time, name string, off, n int, dig Digest) Sample {
	s := Sample{Kind: KGet, ID: c.ids.Add(1), Due: due.Sub(base)}
	want := dig.Len
	req, err := http.NewRequest(http.MethodGet, c.base+"/files/"+name, nil)
	if err != nil {
		s.Err = err
		return s
	}
	if n >= 0 {
		s.Kind = KRange
		want = min(n, dig.Len-off)
		req.Header.Set("Range", "bytes="+strconv.Itoa(off)+"-"+strconv.Itoa(off+want-1))
	} else {
		off = 0
	}
	req.Header.Set(probe.SpanHeader, strconv.FormatUint(s.ID, 10))
	s.Sent = time.Since(base)
	resp, err := c.http.Do(req)
	if err != nil {
		s.Done, s.Err = time.Since(base), err
		return s
	}
	wantStatus := http.StatusOK
	if s.Kind == KRange {
		wantStatus = http.StatusPartialContent
	}
	if cap(c.bufs[w]) < want {
		c.bufs[w] = make([]byte, want)
	}
	buf := c.bufs[w][:want]
	if resp.StatusCode != wantStatus {
		msg, _ := io.ReadAll(io.LimitReader(resp.Body, 512))
		resp.Body.Close()
		s.Done = time.Since(base)
		s.Err = fmt.Errorf("GET %s: status %d: %s", name, resp.StatusCode, bytes.TrimSpace(msg))
		return s
	}
	got, rerr := io.ReadFull(resp.Body, buf)
	extra, _ := io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	s.Done = time.Since(base)
	s.Bytes = got + int(extra)
	switch {
	case rerr != nil || extra != 0:
		s.Err = c.badBytes(fmt.Errorf("%w: GET %s at %d: got %d bytes, want %d", ErrIntegrity, name, off, s.Bytes, want))
	default:
		if err := dig.Check(buf, off); err != nil {
			s.Err = c.badBytes(fmt.Errorf("%w: GET %s: %v", ErrIntegrity, name, err))
		}
	}
	return s
}

// Put stores body under name and expects 201 Created.
func (c *Client) Put(base, due time.Time, name string, body []byte) Sample {
	s := Sample{Kind: KPut, ID: c.ids.Add(1), Due: due.Sub(base), Bytes: len(body)}
	req, err := http.NewRequest(http.MethodPut, c.base+"/files/"+name, bytes.NewReader(body))
	if err != nil {
		s.Err = err
		return s
	}
	s.Err = c.do(req, &s, base, http.StatusCreated)
	return s
}

// Delete removes name and expects 200.
func (c *Client) Delete(base, due time.Time, name string) Sample {
	s := Sample{Kind: KDelete, ID: c.ids.Add(1), Due: due.Sub(base)}
	req, err := http.NewRequest(http.MethodDelete, c.base+"/files/"+name, nil)
	if err != nil {
		s.Err = err
		return s
	}
	s.Err = c.do(req, &s, base, http.StatusOK)
	return s
}

func (c *Client) do(req *http.Request, s *Sample, base time.Time, want int) error {
	req.Header.Set(probe.SpanHeader, strconv.FormatUint(s.ID, 10))
	s.Sent = time.Since(base)
	resp, err := c.http.Do(req)
	if err != nil {
		s.Done = time.Since(base)
		return err
	}
	msg, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	s.Done = time.Since(base)
	if resp.StatusCode != want {
		return fmt.Errorf("%s %s: status %d: %s", req.Method, req.URL.Path, resp.StatusCode, bytes.TrimSpace(msg))
	}
	return nil
}
