package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/signal"
	"runtime"
	"runtime/debug"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"

	_ "repro/internal/code/heptlocal" // workload codes register themselves
	_ "repro/internal/code/polygon"
	_ "repro/internal/code/rs"
	"repro/internal/serve"
	"repro/perfbench/internal/probe"
)

// maxSpans caps the spans a traced server keeps in memory.
const maxSpans = 4 << 20

// Proc is the server process's resource use, as /bench/proc reports it.
type Proc struct {
	CPUNs      int64  `json:"cpu_ns"`      // user + system
	PeakRSSKB  int64  `json:"peak_rss_kb"` // since start or the last /bench/rss-reset
	TotalAlloc uint64 `json:"total_alloc"`
	NumGC      uint32 `json:"num_gc"`
	PauseNs    uint64 `json:"pause_ns"`
}

func readProc() Proc {
	var ru syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru) // cannot fail for RUSAGE_SELF
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return Proc{
		CPUNs:      ru.Utime.Nano() + ru.Stime.Nano(),
		PeakRSSKB:  peakRSS(),
		TotalAlloc: ms.TotalAlloc,
		NumGC:      ms.NumGC,
		PauseNs:    ms.PauseTotalNs,
	}
}

// serverMain is the benchmark server: serve.Open over the shard stores
// under -root, its handler on a loopback port, plus bench-only control
// routes under /bench/. It prints "LISTEN host:port" once it serves.
// With -spans it records spans around the handler, every shard's
// BlockIO and heat hook, and writes them to that file on exit.
func serverMain(args []string) error {
	fs := flag.NewFlagSet("serve", flag.ContinueOnError)
	root := fs.String("root", "", "directory holding the shard stores")
	create := fs.Bool("create", false, "create the shards first")
	code := fs.String("code", "", "code of created shards")
	bs := fs.Int("bs", 0, "block size of created shards")
	ext := fs.Int("ext", 0, "extent size in blocks of created shards")
	shards := fs.Int("shards", 0, "number of created shards")
	spansPath := fs.String("spans", "", "record spans and write them to this file on exit")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *create {
		if err := serve.CreateShards(*root, *code, *bs, *ext, *shards); err != nil {
			return err
		}
	}
	srv, err := serve.Open(*root, serve.Config{})
	if err != nil {
		return err
	}
	var h http.Handler = srv.Handler()
	var rec *probe.Recorder
	if *spansPath != "" {
		rec = probe.NewRecorder(maxSpans)
		for i := 0; i < srv.NumShards(); i++ {
			st := srv.Shard(i)
			st.SetBlockIO(probe.BlockIO{Rec: rec})
			st.OnReadExtent = probe.Heat(rec, st.OnReadExtent)
		}
		h = &probe.Handler{Rec: rec, Next: h}
	}
	quit := make(chan struct{})
	var once sync.Once
	mux := http.NewServeMux()
	mux.Handle("/", h)
	control(mux, srv, func() { once.Do(func() { close(quit) }) })

	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		srv.Close()
		return err
	}
	hs := &http.Server{Handler: mux}
	served := make(chan error, 1)
	go func() { served <- hs.Serve(ln) }()
	fmt.Printf("LISTEN %s\n", ln.Addr())

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, syscall.SIGTERM, syscall.SIGINT)
	select {
	case <-quit:
	case <-sig:
	case err := <-served:
		srv.Close()
		return err
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	shutErr := hs.Shutdown(ctx)
	closeErr := srv.Close()
	if rec != nil {
		if err := probe.WriteFile(*spansPath, rec.Spans()); err != nil {
			return err
		}
		if n := rec.Dropped(); n > 0 {
			fmt.Fprintf(os.Stderr, "perfbench server: span cap reached, %d spans dropped\n", n)
		}
		orphans, shared := rec.Attribution()
		fmt.Fprintf(os.Stderr, "perfbench server: %d child spans ran outside any request on their file, %d while several requests ran on it (given to the latest)\n", orphans, shared)
	}
	return errors.Join(shutErr, closeErr)
}

// control adds the bench-only routes: node kills, one shard's repair,
// transcodes of the named files, fsck, the process's resource use, a
// restart of its peak RSS, and quit. The store's routes go through its
// public functions.
func control(mux *http.ServeMux, srv *serve.Server, stop func()) {
	mux.HandleFunc("POST /bench/kill", func(w http.ResponseWriter, r *http.Request) {
		for _, q := range r.URL.Query()["node"] {
			v, err := strconv.Atoi(q)
			if err != nil {
				http.Error(w, err.Error(), http.StatusBadRequest)
				return
			}
			for i := 0; i < srv.NumShards(); i++ {
				if err := srv.Shard(i).KillNode(v); err != nil {
					http.Error(w, err.Error(), http.StatusInternalServerError)
					return
				}
			}
		}
	})
	mux.HandleFunc("POST /bench/transcode", func(w http.ResponseWriter, r *http.Request) {
		code := r.URL.Query().Get("code")
		for _, name := range r.URL.Query()["name"] {
			if _, err := srv.Shard(srv.ShardOf(name)).Transcode(name, code); err != nil {
				http.Error(w, err.Error(), http.StatusInternalServerError)
				return
			}
		}
	})
	mux.HandleFunc("POST /bench/repair", func(w http.ResponseWriter, r *http.Request) {
		shard, err := strconv.Atoi(r.URL.Query().Get("shard"))
		if err != nil || shard < 0 || shard >= srv.NumShards() {
			http.Error(w, "bad shard", http.StatusBadRequest)
			return
		}
		var nodes []int
		for _, q := range r.URL.Query()["node"] {
			v, err := strconv.Atoi(q)
			if err != nil {
				http.Error(w, err.Error(), http.StatusBadRequest)
				return
			}
			nodes = append(nodes, v)
		}
		rep, err := srv.Shard(shard).Repair(nodes)
		if err != nil {
			http.Error(w, err.Error(), http.StatusInternalServerError)
			return
		}
		writeJSON(w, rep)
	})
	mux.HandleFunc("GET /bench/fsck", func(w http.ResponseWriter, _ *http.Request) {
		rep, err := srv.Fsck()
		if err != nil {
			http.Error(w, err.Error(), http.StatusInternalServerError)
			return
		}
		writeJSON(w, rep)
	})
	mux.HandleFunc("GET /bench/proc", func(w http.ResponseWriter, _ *http.Request) {
		writeJSON(w, readProc())
	})
	// rss-reset returns the heap's free pages to the OS and restarts
	// the peak RSS from the current RSS, so a later peak belongs to
	// what the server did after it.
	mux.HandleFunc("POST /bench/rss-reset", func(w http.ResponseWriter, _ *http.Request) {
		debug.FreeOSMemory()
		if err := os.WriteFile("/proc/self/clear_refs", []byte("5"), 0); err != nil {
			http.Error(w, err.Error(), http.StatusInternalServerError)
		}
	})
	mux.HandleFunc("POST /bench/quit", func(http.ResponseWriter, *http.Request) { stop() })
}

// peakRSS is the process's peak RSS in KiB: VmHWM in
// /proc/self/status, which /bench/rss-reset restarts. It is 0 where
// there is none.
func peakRSS() int64 {
	raw, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	_, rest, ok := strings.Cut(string(raw), "VmHWM:")
	if !ok {
		return 0
	}
	v, _, _ := strings.Cut(strings.TrimSpace(rest), " ")
	kb, _ := strconv.ParseInt(v, 10, 64)
	return kb
}

func writeJSON(w http.ResponseWriter, v any) {
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(v)
}
