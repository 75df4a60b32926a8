package hdfsraid

import (
	"bytes"
	"errors"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

// streamFile is a pentagon file of six stripes (216 KiB of 4 KiB
// blocks): larger than the stream's write buffer, so the sink sees its
// first write while stripes are still left to read.
func streamFile(t *testing.T, s *Store, name string, seed int64) []byte {
	t.Helper()
	data := randomFile(t, 6*s.Code().DataSymbols()*blockSize-5, seed)
	if err := s.Put(name, data); err != nil {
		t.Fatal(err)
	}
	return data
}

// hookSink is a sink that runs onFirst before its first write goes
// through.
type hookSink struct {
	buf     bytes.Buffer
	onFirst func()
}

func (h *hookSink) Write(p []byte) (int, error) {
	if h.onFirst != nil {
		f := h.onFirst
		h.onFirst = nil
		f()
	}
	return h.buf.Write(p)
}

// within fails the test unless f returns before the deadline.
func within(t *testing.T, what string, f func() error) {
	t.Helper()
	done := make(chan error, 1)
	go func() { done <- f() }()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("%s: %v", what, err)
		}
	case <-time.After(10 * time.Second):
		t.Fatalf("%s did not return while a read was stalled", what)
	}
}

// TestGetToStreamsExact: GetTo hands start the file's length and
// writes exactly the file's bytes, for files ending mid-block, mid-
// stripe and mid-extent, and for an empty file.
func TestGetToStreamsExact(t *testing.T) {
	s, err := CreateExt(t.TempDir(), "pentagon", blockSize, 12)
	if err != nil {
		t.Fatal(err)
	}
	for i, n := range []int{0, 1, blockSize, 9*blockSize + 3, 40*blockSize - 1} {
		name := "f" + string(rune('a'+i))
		data := randomFile(t, n, int64(i))
		if err := s.Put(name, data); err != nil {
			t.Fatal(err)
		}
		var sink bytes.Buffer
		starts, length := 0, -1
		err := s.GetTo(name, func(l int) io.Writer {
			starts++
			length = l
			return &sink
		})
		if err != nil {
			t.Fatal(err)
		}
		if starts != 1 || length != n {
			t.Errorf("%d-byte file: start called %d times with length %d", n, starts, length)
		}
		if !bytes.Equal(sink.Bytes(), data) {
			t.Errorf("%d-byte file: streamed bytes differ", n)
		}
	}
}

// TestReadHooksRunOutsideLock: a heat hook that blocks until released
// stalls only its own read. A Delete of another name, which needs the
// manifest write lock, still returns — for whole-file, ranged and
// single-block reads alike.
func TestReadHooksRunOutsideLock(t *testing.T) {
	reads := map[string]func(s *Store) error{
		"Get": func(s *Store) error { _, err := s.Get("a"); return err },
		"ReadAt": func(s *Store) error {
			_, err := s.ReadAt(make([]byte, 10), "a", 5)
			return err
		},
		"ReadBlock": func(s *Store) error { _, _, err := s.ReadBlock("a", 0, 0); return err },
	}
	for kind, read := range reads {
		for _, extentHook := range []bool{false, true} {
			s := newStore(t, "pentagon")
			data := randomFile(t, 3*blockSize, 1)
			for _, name := range []string{"a", "b"} {
				if err := s.Put(name, data); err != nil {
					t.Fatal(err)
				}
			}
			entered, release := make(chan struct{}), make(chan struct{})
			block := func(name string) {
				if name == "a" {
					close(entered)
					<-release
				}
			}
			if extentHook {
				s.OnReadExtent = func(name string, _ int) { block(name) }
			} else {
				s.OnRead = block
			}
			readErr := make(chan error, 1)
			go func() { readErr <- read(s) }()
			<-entered
			within(t, kind+" hook: Delete of another name", func() error {
				_, err := s.Delete("b")
				return err
			})
			close(release)
			if err := <-readErr; err != nil {
				t.Fatalf("%s after the hook returned: %v", kind, err)
			}
		}
	}
}

// TestGetToBlockedSinkDoesNotBlockWriters: a sink stalled mid-body
// holds no store lock, so an ingest commit and a Delete of other names
// complete while it waits, and the stream then finishes byte-exact.
func TestGetToBlockedSinkDoesNotBlockWriters(t *testing.T) {
	s := newStore(t, "pentagon")
	data := streamFile(t, s, "a", 1)
	if err := s.Put("b", randomFile(t, blockSize, 2)); err != nil {
		t.Fatal(err)
	}
	entered, release := make(chan struct{}), make(chan struct{})
	sink := &hookSink{onFirst: func() {
		close(entered)
		<-release
	}}
	streamErr := make(chan error, 1)
	go func() {
		streamErr <- s.GetTo("a", func(int) io.Writer { return sink })
	}()
	<-entered
	within(t, "PutReader commit", func() error {
		return s.PutReader("c", bytes.NewReader(randomFile(t, 2*blockSize, 3)))
	})
	within(t, "Delete of another name", func() error {
		_, err := s.Delete("b")
		return err
	})
	close(release)
	if err := <-streamErr; err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(sink.buf.Bytes(), data) {
		t.Fatal("stream resumed after the stall returned wrong bytes")
	}
}

// TestGetToAbortsOnEntryChange: a delete, a re-ingest or a transcode
// commit that lands between two stripes of a stream aborts it. The
// sink holds only a prefix of the version the stream started on, and
// a deleted file's blocks are not read-healed back into existence.
func TestGetToAbortsOnEntryChange(t *testing.T) {
	changes := map[string]func(s *Store) error{
		"delete": func(s *Store) error { _, err := s.Delete("f"); return err },
		"re-put": func(s *Store) error {
			fi, _ := s.Info("f")
			if _, err := s.Delete("f"); err != nil {
				return err
			}
			return s.Put("f", randomFile(t, fi.Length, 99))
		},
		"transcode": func(s *Store) error { _, err := s.Transcode("f", "rs-14-10"); return err },
	}
	for kind, change := range changes {
		s := newStore(t, "pentagon")
		data := streamFile(t, s, "f", 4)
		// Damage the last stripe, so a stream that read on would heal
		// a replica of it.
		if err := s.CorruptBlock(s.Code().Placement().SymbolNodes[0][0], "f", 5, 0); err != nil {
			t.Fatal(err)
		}
		var changeErr error
		sink := &hookSink{onFirst: func() { changeErr = change(s) }}
		err := s.GetTo("f", func(int) io.Writer { return sink })
		if changeErr != nil {
			t.Fatalf("%s: %v", kind, changeErr)
		}
		if err == nil {
			t.Fatalf("%s mid-stream: the stream finished", kind)
		}
		if kind == "delete" && !errors.Is(err, ErrNotFound) {
			t.Errorf("delete mid-stream: error %v is not ErrNotFound", err)
		}
		got := sink.buf.Bytes()
		if len(got) == 0 || len(got) >= len(data) || !bytes.Equal(got, data[:len(got)]) {
			t.Errorf("%s mid-stream: sink holds %d bytes, want a proper prefix of the old file", kind, len(got))
		}
		if kind != "delete" {
			continue
		}
		nodes, err := filepath.Glob(filepath.Join(s.root, "node-*"))
		if err != nil {
			t.Fatal(err)
		}
		for _, dir := range nodes {
			entries, err := os.ReadDir(dir)
			if err != nil {
				t.Fatal(err)
			}
			for _, e := range entries {
				if strings.HasPrefix(e.Name(), "f.") {
					t.Errorf("block %s of the deleted file exists after the stream", filepath.Join(filepath.Base(dir), e.Name()))
				}
			}
		}
	}
}
