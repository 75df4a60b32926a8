package main

import (
	"fmt"
	"io/fs"
	"net/http"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"syscall"
	"time"

	"repro/internal/core"
	"repro/internal/hdfsraid"
	"repro/internal/obs"
	"repro/perfbench/internal/load"
)

// Phase numbers seed each phase's schedule and name its private files.
const (
	phaseFixed = 1
	phaseSat   = 2
)

// maxOps bounds a phase's schedule.
const maxOps = 1 << 20

// run is one workload run: its spec and seed, its data set, the
// running server, and everything measured so far.
type run struct {
	spec    load.Spec
	seed    uint64
	seconds float64
	dir     string // work directory of this workload
	conns   int

	ds  *load.DataSet
	srv *server
	cl  *load.Client

	samples []load.Sample // every data request of the run
	failed  []string      // correctness check failures
	last    time.Time     // previous mark
}

// mark logs to stderr how long the step just finished took.
func (r *run) mark(step string) {
	now := time.Now()
	if !r.last.IsZero() {
		fmt.Fprintf(os.Stderr, "  %-24s %6.2fs\n", step, now.Sub(r.last).Seconds())
	}
	r.last = now
}

// settle writes back every dirty page before a measured step, so the
// step does not pay for the writeback of the one before it.
func settle() { syscall.Sync() }

// coldWait is how long a setup waits, idle, before its clock starts.
// On a VM whose balloon driver reports free pages to the host (Linux
// does so about two seconds after they are freed), the page cache a
// setup fills costs host page faults unless it reuses the pages the
// teardown before it has just freed; that made back-to-back setups
// take anywhere from one to two times as long. Waiting past the delay
// makes every setup start from the same state.
const coldWait = 2500 * time.Millisecond

func (r *run) root() string { return filepath.Join(r.dir, "store") }

func (r *run) fail(format string, args ...any) {
	msg := fmt.Sprintf(format, args...)
	r.failed = append(r.failed, msg)
	fmt.Fprintln(os.Stderr, "CHECK FAILED:", msg)
}

// keep adds samples to the run's tally and returns them.
func (r *run) keep(s []load.Sample) []load.Sample {
	r.samples = append(r.samples, s...)
	return s
}

// each runs fn for i in [0, n) over the run's connections, closed
// loop, and returns the samples in order of due time. base is the
// common time origin.
func (r *run) each(n int, fn func(w int, base time.Time, i int) load.Sample) []load.Sample {
	samples, _ := load.ClosedLoop(n, r.conns, 0, func(w, i int, base time.Time, out []load.Sample) []load.Sample {
		return append(out, fn(w, base, i))
	})
	return r.keep(samples)
}

// start starts the run's server over its store, creating the shards
// first with create, and traced when spans names a file to write spans
// to.
func (r *run) start(create bool, spans string) error {
	srv, err := startServer(r.root(), r.spec, create, spans)
	if err != nil {
		return err
	}
	r.srv = srv
	r.cl = load.NewClient(srv.base, r.conns, r.ds, load.RangeBytes)
	return nil
}

// stopServer stops the run's server.
func (r *run) stopServer() error {
	r.cl.Close()
	err := r.srv.stop()
	r.srv = nil
	return err
}

// setup creates the shards in a fresh directory, starts the server and
// preloads the data set over HTTP with the run's connections, closed
// loop. It returns the setup time and the preload's samples.
func (r *run) setup() (time.Duration, []load.Sample, error) {
	if err := os.RemoveAll(r.root()); err != nil {
		return 0, nil, err
	}
	settle()
	time.Sleep(coldWait)
	start := time.Now()
	if err := r.start(true, ""); err != nil {
		return 0, nil, err
	}
	files := r.ds.Files
	samples := r.each(len(files), func(_ int, base time.Time, i int) load.Sample {
		return r.cl.Put(base, time.Now(), files[i].Name, r.ds.Bodies[files[i].Name])
	})
	took := time.Since(start)
	if err := firstErr(samples); err != nil {
		return took, samples, fmt.Errorf("preload: %w", err)
	}
	return took, samples, nil
}

// teardown deletes the preload set over HTTP and returns the samples.
func (r *run) teardown() []load.Sample {
	files := r.ds.Files
	return r.each(len(files), func(_ int, base time.Time, i int) load.Sample {
		return r.cl.Delete(base, time.Now(), files[i].Name)
	})
}

// readAll reads every preload file whole and checks it.
func (r *run) readAll() []load.Sample {
	files := r.ds.Files
	return r.each(len(files), func(w int, base time.Time, i int) load.Sample {
		return r.cl.Read(w, base, time.Now(), files[i].Name, 0, -1)
	})
}

// checkPreloadSet checks that the store holds exactly the preload set.
func (r *run) checkPreloadSet(when string) error {
	names, err := r.srv.files()
	if err != nil {
		return err
	}
	want := make([]string, len(r.ds.Files))
	for i, f := range r.ds.Files {
		want[i] = f.Name
	}
	if strings.Join(names, ",") != strings.Join(want, ",") {
		r.fail("%s: the store holds %d files, not exactly the %d-file preload set", when, len(names), len(want))
	}
	return nil
}

// storedBytes sums the sizes of the files under every shard's node
// directories.
func (r *run) storedBytes() (int64, error) {
	dirs, err := filepath.Glob(filepath.Join(r.root(), "shard-*", "node-*"))
	if err != nil {
		return 0, err
	}
	var total int64
	for _, d := range dirs {
		err := filepath.WalkDir(d, func(_ string, e fs.DirEntry, err error) error {
			if err != nil || e.IsDir() {
				return err
			}
			info, err := e.Info()
			if err != nil {
				return err
			}
			total += info.Size()
			return nil
		})
		if err != nil {
			return 0, err
		}
	}
	return total, nil
}

// expectedOverhead is the stored bytes per user byte the geometry
// implies: core.StorageOverhead times the data-block slots the files'
// stripes occupy (padding included), each slot a block frame of
// BlockSize bytes plus its 4-byte checksum trailer, over the user
// bytes.
func expectedOverhead(spec load.Spec, files []load.File) (float64, error) {
	c, err := core.New(spec.Code)
	if err != nil {
		return 0, err
	}
	k, bs := c.DataSymbols(), load.BlockSize
	var slots, user int64
	for _, f := range files {
		blocks := (f.Size + bs - 1) / bs
		per := spec.ExtentBlocks
		if per <= 0 || per > blocks {
			per = blocks
		}
		for start := 0; start < blocks; start += per {
			n := min(per, blocks-start)
			slots += int64((n + k - 1) / k * k)
		}
		user += int64(f.Size)
	}
	return core.StorageOverhead(c) * float64(slots) * float64(bs+4) / float64(user), nil
}

// checkOverhead measures stored bytes per user byte and checks it
// against the geometry's value.
func (r *run) checkOverhead(when string) (float64, error) {
	stored, err := r.storedBytes()
	if err != nil {
		return 0, err
	}
	got := float64(stored) / float64(r.ds.UserBytes())
	want, err := expectedOverhead(r.spec, r.ds.Files)
	if err != nil {
		return 0, err
	}
	if d := got/want - 1; d > 1e-9 || d < -1e-9 {
		r.fail("%s: stored %.6f bytes per user byte, the geometry implies %.6f", when, got, want)
	}
	return got, nil
}

// maintBatches is how many equal batches a round's degraded scan and
// transcodes are split into; each batch's throughput is one sample.
const maintBatches = 4

// roundResult is what one maintenance round measured, in MB/s: one
// figure per scan batch, per shard repaired, per transcode batch.
type roundResult struct {
	scan, repair, transcode []float64
}

// batches splits [0, n) into at most k consecutive [lo, hi) ranges of
// near-equal size.
func batches(n, k int) [][2]int {
	k = max(1, min(k, n))
	out := make([][2]int, k)
	for i := range out {
		out[i] = [2]int{i * n / k, (i + 1) * n / k}
	}
	return out
}

func mbs(bytes int64, d time.Duration) float64 { return float64(bytes) / 1e6 / d.Seconds() }

// maintRound kills the round's nodes on every shard, scans the data
// set once with stripe-sized ranged GETs (degraded reads), repairs the
// killed nodes shard by shard, transcodes files to TranscodeTo and
// back, and then checks that fsck is healthy and every file reads back
// byte-exact.
func (r *run) maintRound(round int) (roundResult, error) {
	var res roundResult
	q := nodeQuery(r.spec.Kill)
	settle()
	if err := r.srv.call(http.MethodPost, "/bench/kill?"+q, nil); err != nil {
		return res, err
	}
	settle()
	r.mark("kill")

	c, err := core.New(r.spec.Code)
	if err != nil {
		return res, err
	}
	stripe := c.DataSymbols() * load.BlockSize
	type split struct {
		name     string
		off, len int
	}
	var scan []split
	for _, f := range r.ds.Files {
		for off := 0; off < f.Size; off += stripe {
			scan = append(scan, split{f.Name, off, min(stripe, f.Size-off)})
		}
	}
	for _, b := range batches(len(scan), maintBatches) {
		part := scan[b[0]:b[1]]
		bytes := 0
		for _, sp := range part {
			bytes += sp.len
		}
		start := time.Now()
		samples := r.each(len(part), func(w int, base time.Time, i int) load.Sample {
			return r.cl.Read(w, base, time.Now(), part[i].name, part[i].off, part[i].len)
		})
		if err := firstErr(samples); err != nil {
			return res, fmt.Errorf("degraded scan: %w", err)
		}
		res.scan = append(res.scan, mbs(int64(bytes), time.Since(start)))
	}
	r.mark("degraded scan")

	for i := 0; i < r.spec.Shards; i++ {
		var rep hdfsraid.RepairReport
		start := time.Now()
		if err := r.srv.call(http.MethodPost, fmt.Sprintf("/bench/repair?shard=%d&%s", i, q), &rep); err != nil {
			return res, err
		}
		res.repair = append(res.repair, mbs(int64(rep.BlocksRestored)*int64(load.BlockSize), time.Since(start)))
	}
	r.mark("repair")

	moved := r.ds.Files
	if n := r.spec.TranscodeFiles; n > 0 {
		moved = moved[:n]
	}
	for _, b := range batches(len(moved), maintBatches) {
		var names []string
		var bytes int64
		for _, f := range moved[b[0]:b[1]] {
			names = append(names, "name="+f.Name)
			bytes += int64(f.Size)
		}
		start := time.Now()
		for _, code := range []string{load.TranscodeTo, r.spec.Code} {
			if err := r.srv.call(http.MethodPost, "/bench/transcode?code="+code+"&"+strings.Join(names, "&"), nil); err != nil {
				return res, err
			}
		}
		res.transcode = append(res.transcode, mbs(2*bytes, time.Since(start)))
	}
	r.mark("transcode")
	fmt.Fprintf(os.Stderr, "    MB/s: scan batches %.0f, repaired shards %.0f, transcode batches %.1f\n", res.scan, res.repair, res.transcode)

	var fsck hdfsraid.FsckReport
	if err := r.srv.call(http.MethodGet, "/bench/fsck", &fsck); err != nil {
		return res, err
	}
	if !fsck.Healthy() {
		r.fail("maintenance round %d: fsck found %d missing and %d corrupt blocks", round, fsck.Missing, fsck.Corrupt)
	}
	if err := firstErr(r.readAll()); err != nil {
		r.fail("maintenance round %d: full read: %v", round, err)
	}
	r.mark("fsck and full read")
	return res, nil
}

// maintenance runs rounds until budget has passed, at least one.
func (r *run) maintenance(budget time.Duration) ([]roundResult, error) {
	var rounds []roundResult
	start := time.Now()
	for i := 0; i == 0 || time.Since(start) < budget; i++ {
		res, err := r.maintRound(i)
		if err != nil {
			return rounds, fmt.Errorf("maintenance round %d: %w", i, err)
		}
		rounds = append(rounds, res)
	}
	return rounds, nil
}

// phase is one open-loop phase with the server's and the generator's
// resource use around it.
type phase struct {
	res          load.OpenLoopResult
	from, to     int64 // wall clock, Unix ns
	proc0, proc1 Proc
	stats0       obs.Snapshot
	stats1       obs.Snapshot
	genCPU       time.Duration
	// steal is the share of the host's CPU time the hypervisor took
	// from this machine during the phase.
	steal float64
}

// fixedRate runs the workload's open-loop phase at its offered rate.
func (r *run) fixedRate(dur time.Duration) (*phase, error) {
	ops := load.Schedule(r.spec, r.ds.Files, r.seed, phaseFixed, dur, maxOps)
	p := &phase{}
	settle()
	var err error
	if p.stats0, err = r.srv.stats(); err != nil {
		return nil, err
	}
	if p.proc0, err = r.srv.proc(); err != nil {
		return nil, err
	}
	g0 := selfCPU()
	steal0, total0 := cpuStat()
	p.from = time.Now().UnixNano()
	p.res = load.OpenLoop(ops, r.conns, r.cl.Exec)
	p.to = time.Now().UnixNano()
	p.genCPU = selfCPU() - g0
	steal1, total1 := cpuStat()
	p.steal = ratio(float64(steal1-steal0), float64(total1-total0))
	r.keep(p.res.Samples)
	if p.proc1, err = r.srv.proc(); err != nil {
		return nil, err
	}
	if p.stats1, err = r.srv.stats(); err != nil {
		return nil, err
	}
	r.mark("fixed-rate phase")
	return p, nil
}

// selfCPU is the generator process's CPU time so far.
func selfCPU() time.Duration {
	var ru syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru) // cannot fail for RUSAGE_SELF
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// serverCPUPerOp is the server's CPU time in ns per successful request
// of the phase.
func (p *phase) serverCPUPerOp() float64 {
	return ratio(float64(p.proc1.CPUNs-p.proc0.CPUNs), float64(okCount(p.res.Samples)))
}

// genCPUFrac is the generator's share of the CPU time the generator
// and the server used in the phase.
func (p *phase) genCPUFrac() float64 {
	gen := float64(p.genCPU)
	return ratio(gen, gen+float64(p.proc1.CPUNs-p.proc0.CPUNs))
}

// lateP99 is the p99 in ms of how late the dispatcher handed requests
// to the workers.
func (p *phase) lateP99() float64 {
	late := make([]float64, len(p.res.Late))
	for i, d := range p.res.Late {
		late[i] = float64(d) / 1e6
	}
	return load.Percentile(late, 99)
}

// cpuStat returns the steal and total jiffies of /proc/stat's cpu
// line, or zeros where there is none.
func cpuStat() (steal, total int64) {
	raw, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, 0
	}
	line, _, _ := strings.Cut(string(raw), "\n")
	for i, f := range strings.Fields(line)[1:] {
		v, _ := strconv.ParseInt(f, 10, 64)
		total += v
		if i == 7 {
			steal = v
		}
	}
	return steal, total
}

// firstErr returns the first failed sample's error.
func firstErr(samples []load.Sample) error {
	for _, s := range samples {
		if s.Err != nil {
			return s.Err
		}
	}
	return nil
}
