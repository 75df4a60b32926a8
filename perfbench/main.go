// Command perfbench is the repository's store benchmark. It starts the
// store's HTTP front door (internal/serve) as a separate server process
// over shard stores on disk, drives it from this process over loopback
// HTTP on a seeded open-loop schedule, checks every byte it reads, and
// prints the end-to-end metrics — or, with --trace 1, the per-layer
// metrics from a traced run — as one JSON object on the last line of
// standard output.
//
//	perfbench --workload read-zipf --seed 1 --seconds 15 --trace 0
//	perfbench --workload all --seed 1 --seconds 15
//
// The workloads are listed in internal/load.Workloads and described in
// README.md. The command exits 1 when a check fails: a read that
// returned wrong bytes, an unhealthy fsck, stored bytes that do not
// match the geometry, or a store that does not hold exactly its
// preload set after the foreground phases.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"syscall"
	"time"

	"repro/perfbench/internal/load"
)

func main() {
	if len(os.Args) > 1 && os.Args[1] == "serve" {
		if err := serverMain(os.Args[2:]); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench server:", err)
			os.Exit(1)
		}
		return
	}
	os.Exit(benchMain(os.Args[1:]))
}

// Metric is one reported figure.
type Metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// Result is the line the benchmark prints last.
type Result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]Metric `json:"metrics"`
}

func benchMain(args []string) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	workload := fs.String("workload", "", `workload name, or "all"`)
	seed := fs.Uint64("seed", 1, "seed of the data set and op schedule")
	seconds := fs.Float64("seconds", 10, "measuring time of one run")
	trace := fs.Int("trace", 0, "1 for the traced run that reports per-layer metrics")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "perfbench: --seconds must be positive and --trace 0 or 1")
		return 2
	}
	specs := load.Workloads
	if *workload != "all" {
		spec, err := load.Lookup(*workload)
		if err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
			return 2
		}
		specs = []load.Spec{spec}
	}
	total := Result{Correct: true, Metrics: map[string]Metric{}}
	for _, spec := range specs {
		res, err := runWorkload(spec, *seed, *seconds, *trace == 1)
		if err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", spec.Name, err)
			return 1
		}
		if len(specs) == 1 {
			total = res
			break
		}
		line, _ := json.Marshal(res)
		fmt.Printf("%s %s\n", spec.Name, line)
		total.Correct = total.Correct && res.Correct
		total.Attempted += res.Attempted
		total.Failed += res.Failed
		for name, m := range res.Metrics {
			total.Metrics[spec.Name+"."+name] = m
		}
	}
	line, err := json.Marshal(total)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	fmt.Println(string(line))
	if !total.Correct {
		return 1
	}
	return 0
}

// workDir holds each workload's store and span files, under the
// directory the build cache lives in.
var workDir = filepath.Join(".bench_build", "perfbench")

// runWorkload runs one workload in its own work directory and removes
// the store afterwards.
func runWorkload(spec load.Spec, seed uint64, seconds float64, trace bool) (Result, error) {
	r := &run{
		spec:    spec,
		seed:    seed,
		seconds: seconds,
		dir:     filepath.Join(workDir, spec.Name),
		conns:   runtime.NumCPU(),
	}
	if err := os.MkdirAll(r.dir, 0o755); err != nil {
		return Result{}, err
	}
	describe(r)
	r.ds = load.NewDataSet(spec, seed)
	var metrics map[string]Metric
	var err error
	if trace {
		metrics, err = r.traced()
	} else {
		metrics, err = r.untraced()
	}
	if r.srv != nil {
		r.stopServer()
	}
	os.RemoveAll(r.root())
	if err != nil {
		return Result{}, err
	}
	res := Result{Correct: len(r.failed) == 0, Attempted: len(r.samples), Metrics: metrics}
	for _, s := range r.samples {
		if s.Err != nil {
			res.Failed++
		}
	}
	if n, first := r.cl.IntegrityErrors(); n > 0 {
		res.Correct = false
		fmt.Fprintf(os.Stderr, "CHECK FAILED: %d reads returned wrong bytes; first: %v\n", n, first)
	}
	report(metrics)
	return res, nil
}

// describe prints the workload's setting to stderr.
func describe(r *run) {
	s := r.spec
	fmt.Fprintf(os.Stderr, "perfbench %s seed %d: %s, %d shards, %d B blocks, %d-block extents; %d files of %d-%d B; zipf %.1f, %.0f%% ranged %d B reads, %.0f%% write ops; %.0f ops/s offered over %d connections; store on %s\n",
		s.Name, r.seed, s.Code, s.Shards, load.BlockSize, s.ExtentBlocks, s.Files, s.MinBytes, s.MaxBytes,
		load.ZipfS, 100*load.RangeFrac, load.RangeBytes, 100*s.WriteFrac, s.Rate, r.conns, fsName(r.dir))
}

// report prints the metrics to stderr, one per line, sorted.
func report(metrics map[string]Metric) {
	names := make([]string, 0, len(metrics))
	for n := range metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Fprintf(os.Stderr, "  %-34s %14.6g %s\n", n, metrics[n].Value, metrics[n].Unit)
	}
}

func seconds(f float64) time.Duration { return time.Duration(f * float64(time.Second)) }

// fsName names the filesystem holding dir, so a run on tmpfs shows.
func fsName(dir string) string {
	var st syscall.Statfs_t
	if err := syscall.Statfs(dir, &st); err != nil {
		return "an unknown filesystem"
	}
	switch st.Type {
	case 0x01021994:
		return "tmpfs"
	case 0xef53:
		return "ext2/3/4"
	case 0x58465342:
		return "xfs"
	case 0x9123683e:
		return "btrfs"
	case 0x794c7630:
		return "overlayfs"
	}
	return fmt.Sprintf("filesystem 0x%x", st.Type)
}
