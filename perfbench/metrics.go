package main

import (
	"fmt"
	"net/http"
	"os"
	"time"

	"repro/internal/obs"
	"repro/perfbench/internal/load"
	"repro/perfbench/internal/probe"
)

// latencies returns the latencies in ms of the successful samples of
// one kind.
func latencies(samples []load.Sample, kind load.Kind) []float64 {
	var ms []float64
	for _, s := range samples {
		if s.Kind == kind && s.Err == nil {
			ms = append(ms, float64(s.Latency())/1e6)
		}
	}
	return ms
}

// satWindow is the window the saturation phase counts completions in.
const satWindow = 250 * time.Millisecond

// sustained is the saturation phase's completion rate: the median over
// its whole satWindow windows of the successful requests done in each.
func sustained(samples []load.Sample, dur time.Duration) float64 {
	n := int(dur / satWindow)
	if n == 0 {
		return float64(okCount(samples)) / dur.Seconds()
	}
	counts := make([]float64, n)
	for _, s := range samples {
		if w := int(s.Done / satWindow); s.Err == nil && w < n {
			counts[w]++
		}
	}
	return load.Median(counts) / satWindow.Seconds()
}

// latencyByKind returns the latencies the metrics report, per op kind:
// gets and ranges from the fixed-rate phase; puts and deletes from it
// when the workload writes there, else from writes, the setups'
// preloads and the teardowns. It prints each kind's sample count, p50
// and p99 to stderr.
func latencyByKind(fixed, writes []load.Sample) map[load.Kind][]float64 {
	lat := map[load.Kind][]float64{}
	kinds := []load.Kind{load.KGet, load.KRange, load.KPut, load.KDelete}
	for _, k := range kinds {
		lat[k] = latencies(fixed, k)
	}
	if len(lat[load.KPut]) == 0 {
		lat[load.KPut], lat[load.KDelete] = latencies(writes, load.KPut), latencies(writes, load.KDelete)
	}
	for _, k := range kinds {
		fmt.Fprintf(os.Stderr, "  %-6s n=%-6d p50 %8.3f ms  p99 %8.3f ms\n", k, len(lat[k]), load.Median(lat[k]), load.Percentile(lat[k], 99))
	}
	return lat
}

func okCount(samples []load.Sample) int {
	n := 0
	for _, s := range samples {
		if s.Err == nil {
			n++
		}
	}
	return n
}

// untraced is the run that reports the end-to-end metrics: SetupReps
// setups, the open-loop phase at the fixed rate, the saturation phase,
// and the maintenance rounds.
func (r *run) untraced() (map[string]Metric, error) {
	var setups []float64
	var writes []load.Sample // preload puts and teardown deletes
	r.mark("start")
	for rep := 0; rep < load.SetupReps; rep++ {
		took, puts, err := r.setup()
		if err != nil {
			return nil, err
		}
		r.mark("setup")
		setups = append(setups, took.Seconds())
		writes = append(writes, puts...)
		if rep == load.SetupReps-1 {
			break
		}
		writes = append(writes, r.teardown()...)
		if err := r.stopServer(); err != nil {
			return nil, err
		}
		r.mark("teardown")
	}
	r.ds.Bodies = nil
	overhead, err := r.checkOverhead("after setup")
	if err != nil {
		return nil, err
	}

	fixed, err := r.fixedRate(seconds(r.spec.FixedShare * r.seconds))
	if err != nil {
		return nil, err
	}
	if err := r.srv.call(http.MethodPost, "/bench/rss-reset", nil); err != nil {
		return nil, err
	}
	sat := r.saturate()
	served, err := r.srv.proc()
	if err != nil {
		return nil, err
	}
	if err := r.checkPreloadSet("after the foreground phases"); err != nil {
		return nil, err
	}
	mt, err := r.maintain()
	if err != nil {
		return nil, err
	}
	if _, err := r.checkOverhead("after maintenance"); err != nil {
		return nil, err
	}
	writes = append(writes, r.teardown()...)
	if err := r.stopServer(); err != nil {
		return nil, err
	}
	r.mark("teardown")

	lat := latencyByKind(fixed.res.Samples, writes)
	failed := len(r.samples) - okCount(r.samples)
	fmt.Fprintf(os.Stderr, "%d setups; %d maintenance rounds; %d of %d requests failed\n",
		len(setups), len(mt.rounds), failed, len(r.samples))
	fmt.Fprintf(os.Stderr, "fixed-rate phase: generator %.0f%% of CPU, %.2f ms late at p99; host steal %.1f%%\n",
		100*fixed.genCPUFrac(), fixed.lateP99(), 100*fixed.steal)
	fmt.Fprintln(os.Stderr, "wall-clock figures (no bound):")
	report(wallMetrics(lat, sat, mt.rounds))
	return map[string]Metric{
		"setup_s":                    {load.Median(setups), "s"},
		"server_cpu_us_per_op":       {fixed.serverCPUPerOp() / 1e3, "us"},
		"server_peak_rss_mb":         {float64(served.PeakRSSKB) / 1024, "MiB"},
		"stored_bytes_per_user_byte": {overhead, "B/B"},
		"repair_transfers_per_block": {mt.transfersPerBlock(), "blocks"},
		"success_frac":               {1 - float64(failed)/float64(len(r.samples)), "frac"},
	}, nil
}

// saturate runs the saturation phase and returns its completion rate.
func (r *run) saturate() float64 {
	ops := load.Schedule(r.spec, r.ds.Files, r.seed, phaseSat, time.Duration(1<<62), 200000)
	settle()
	dur := seconds(r.spec.SatShare * r.seconds)
	samples, _ := load.ClosedLoop(len(ops), r.conns, dur, func(w, i int, base time.Time, out []load.Sample) []load.Sample {
		return r.cl.Exec(w, ops[i], base, time.Now(), out)
	})
	r.keep(samples)
	r.mark("saturation phase")
	return sustained(samples, dur)
}

// maint is what the maintenance rounds measured, with the store
// snapshots around them.
type maint struct {
	rounds []roundResult
	m0, m1 obs.Snapshot
}

// maintain runs the maintenance rounds for the workload's share of
// the run.
func (r *run) maintain() (maint, error) {
	var mt maint
	var err error
	if mt.m0, err = r.srv.stats(); err != nil {
		return mt, err
	}
	if mt.rounds, err = r.maintenance(seconds(r.spec.MaintShare * r.seconds)); err != nil {
		return mt, err
	}
	mt.m1, err = r.srv.stats()
	return mt, err
}

// transfersPerBlock is the paper's repair bandwidth: block transfers
// per block replica restored, over every round's repair.
func (mt maint) transfersPerBlock() float64 {
	return ratio(float64(counterDelta(mt.m0, mt.m1, "store_repair_transfers_total")),
		float64(counterDelta(mt.m0, mt.m1, "store_repair_blocks_restored_total")))
}

// wallMetrics are the wall-clock figures, which the benchmark reports
// without a bound: GET latency medians, the saturation phase's rate,
// and the maintenance steps' throughput (medians over scan batches,
// repaired shards and transcode batches).
func wallMetrics(lat map[load.Kind][]float64, sat float64, rounds []roundResult) map[string]Metric {
	var scan, repair, tc []float64
	for _, rd := range rounds {
		scan = append(scan, rd.scan...)
		repair = append(repair, rd.repair...)
		tc = append(tc, rd.transcode...)
	}
	return map[string]Metric{
		"latency.get_p50_ms":            {load.Median(lat[load.KGet]), "ms"},
		"latency.range_p50_ms":          {load.Median(lat[load.KRange]), "ms"},
		"throughput.sustained_ops_s":    {sat, "1/s"},
		"throughput.degraded_scan_mb_s": {load.Median(scan), "MB/s"},
		"throughput.repair_mb_s":        {load.Median(repair), "MB/s"},
		"throughput.transcode_mb_s":     {load.Median(tc), "MB/s"},
	}
}

// Store histograms whose sums make up the store's busy time in a
// serving phase, and the per-op latency each per-layer metric reads.
var storeOps = map[string][]string{
	"get":    {"store_get_intact_ns", "store_get_degraded_ns"},
	"readat": {"store_readat_ns"},
	"put":    {"store_put_ns"},
	"delete": {"store_delete_ns"},
}

// histDelta is the histogram of the observations made between two
// snapshots of the named histograms, merged.
func histDelta(a, b obs.Snapshot, names ...string) obs.HistogramSnapshot {
	var out obs.HistogramSnapshot
	for _, name := range names {
		before := map[int64]uint64{}
		for _, bk := range a.Histograms[name].Buckets {
			before[bk.Lo] = bk.Count
		}
		after := b.Histograms[name]
		d := obs.HistogramSnapshot{Count: after.Count - a.Histograms[name].Count, Sum: after.Sum - a.Histograms[name].Sum, Max: after.Max}
		for _, bk := range after.Buckets {
			if n := bk.Count - before[bk.Lo]; n > 0 {
				d.Buckets = append(d.Buckets, obs.HistogramBucket{Lo: bk.Lo, Count: n})
			}
		}
		out.Merge(d)
	}
	return out
}

func counterDelta(a, b obs.Snapshot, name string) int64 { return b.Counters[name] - a.Counters[name] }

// ratio is a/b, or 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// traced is the run that reports the per-layer metrics. After one
// setup it runs the same open-loop schedule three times: on the plain
// server, on a restarted server with tracing, and on a plain server
// again, which then runs the saturation phase, the maintenance rounds
// and a teardown. The two plain phases bracket the traced one, so the
// tracing overhead is not mistaken for the drift between a first and
// a second phase.
func (r *run) traced() (map[string]Metric, error) {
	_, puts, err := r.setup()
	if err != nil {
		return nil, err
	}
	r.ds.Bodies = nil
	if _, err := r.checkOverhead("after setup"); err != nil {
		return nil, err
	}
	dur := seconds(r.spec.FixedShare * r.seconds)
	plain, err := r.fixedRate(dur)
	if err != nil {
		return nil, err
	}
	if err := r.stopServer(); err != nil {
		return nil, err
	}
	spansPath := r.root() + "-spans.jsonl"
	if err := r.start(false, spansPath); err != nil {
		return nil, err
	}
	tr, err := r.fixedRate(dur)
	if err != nil {
		return nil, err
	}
	if err := r.stopServer(); err != nil {
		return nil, err
	}
	if err := r.start(false, ""); err != nil {
		return nil, err
	}
	again, err := r.fixedRate(dur)
	if err != nil {
		return nil, err
	}
	sat := r.saturate()
	if err := r.checkPreloadSet("after the foreground phases"); err != nil {
		return nil, err
	}
	mt, err := r.maintain()
	if err != nil {
		return nil, err
	}
	if _, err := r.checkOverhead("after maintenance"); err != nil {
		return nil, err
	}
	writes := append(puts, r.teardown()...)
	if err := r.stopServer(); err != nil {
		return nil, err
	}
	lat := latencyByKind(plain.res.Samples, writes)
	spans, err := probe.ReadFile(spansPath)
	if err != nil {
		return nil, err
	}
	client := map[uint64]int64{}
	for _, s := range tr.res.Samples {
		if s.Err == nil {
			client[s.ID] = int64(s.Done - s.Sent)
		}
	}
	m := perLayer(plain, tr, again, probe.Analyze(spans, tr.from, tr.to, client), mt, lat)
	for name, v := range wallMetrics(lat, sat, mt.rounds) {
		m[name] = v
	}
	return m, nil
}

// perLayer computes the per-layer metrics: serve, store, block I/O and
// heat from the traced phase tr and its spans l; coding from the store
// snapshots m0 and m1 around the maintenance rounds and from the
// rounds' throughput; server runtime, harness figures and the
// latencies lat from the first plain phase (and, for workloads that do
// not write there, the setup and teardown); the tracing overhead from
// tr against both plain phases, plain and again.
func perLayer(plain, tr, again *phase, l probe.Layers, mt maint, lat map[load.Kind][]float64) map[string]Metric {
	m := map[string]Metric{}
	set := func(name string, v float64, unit string) { m[name] = Metric{v, unit} }
	s0, s1 := tr.stats0, tr.stats1

	// serve
	for _, op := range []string{"get", "range", "put", "delete"} {
		set("serve."+op+".handler_ms_p50", load.Percentile(l.Handler[op], 50)/1e6, "ms")
	}
	set("serve.wire_ms_p50", load.Percentile(l.Wire, 50)/1e6, "ms")
	var storeBusy int64
	for _, op := range []string{"get", "readat", "put", "delete"} {
		h := histDelta(s0, s1, storeOps[op]...)
		storeBusy += h.Sum
		set("store."+op+"_ms_p50", float64(h.Quantile(0.5))/1e6, "ms")
	}
	set("serve.busy_s", float64(l.HandlerBusy)/1e9, "s")
	set("serve.self_s", float64(l.HandlerBusy-storeBusy)/1e9, "s")
	set("serve.inflight_max", float64(l.InflightMax), "count")

	// hdfsraid: store busy less the block I/O and heat time inside it.
	set("store.busy_s", float64(storeBusy)/1e9, "s")
	set("store.self_s", float64(storeBusy-l.BlockCovered-l.TouchInCalls)/1e9, "s")

	// blockio
	reads := float64(len(l.Handler["get"]) + len(l.Handler["range"]))
	var putBytes int64
	for _, s := range tr.res.Samples {
		if s.Kind == load.KPut && s.Err == nil {
			putBytes += int64(s.Bytes)
		}
	}
	set("blockio.opens", float64(l.BlockOps[probe.OpOpen]), "count")
	set("blockio.read_bytes", float64(l.ReadBytes), "B")
	set("blockio.writes", float64(l.BlockOps[probe.OpWrite]), "count")
	set("blockio.write_bytes", float64(l.WriteBytes), "B")
	set("blockio.renames", float64(l.BlockOps[probe.OpRename]), "count")
	set("blockio.removes", float64(l.BlockOps[probe.OpRemove]), "count")
	set("blockio.read_busy_s", float64(l.ReadBusy)/1e9, "s")
	set("blockio.write_busy_s", float64(l.WriteBusy)/1e9, "s")
	set("blockio.covered_s", float64(l.BlockCovered)/1e9, "s")
	set("blockio.opens_per_get", ratio(float64(l.BlockOps[probe.OpOpen]), reads), "ratio")
	set("blockio.write_bytes_per_put_byte", ratio(float64(l.WriteBytes), float64(putBytes)), "ratio")

	// heat
	set("heat.touches", float64(len(l.Touches)), "count")
	set("heat.touch_busy_s", float64(l.TouchBusy)/1e9, "s")
	set("heat.touch_us_p99", load.Percentile(l.Touches, 99)/1e3, "us")
	set("heat.touches_per_read", ratio(float64(len(l.Touches)), reads), "ratio")
	set("heat.appends", float64(counterDelta(s0, s1, "accesslog_appends_total")), "count")
	set("heat.flushes", float64(counterDelta(s0, s1, "accesslog_flushes_total")), "count")

	// coding, over the maintenance rounds
	m0, m1 := mt.m0, mt.m1
	set("core.degraded_reads", float64(counterDelta(m0, m1, "store_reads_degraded_total")), "count")
	set("core.read_heals", float64(counterDelta(m0, m1, "read_heal_total")), "count")
	set("core.repair_blocks_restored", float64(counterDelta(m0, m1, "store_repair_blocks_restored_total")), "count")
	for _, st := range []string{"read", "encode", "write", "swap"} {
		set("transcode."+st+"_s", float64(histDelta(m0, m1, "transcode_"+st+"_ns").Sum)/1e9, "s")
	}
	set("transcode.blocks_read", float64(counterDelta(m0, m1, "transcode_blocks_read_total")), "count")
	set("transcode.blocks_written", float64(counterDelta(m0, m1, "transcode_blocks_written_total")), "count")

	// server runtime and harness, from the untraced phase
	ops := float64(okCount(plain.res.Samples))
	set("proc.alloc_bytes_per_op", ratio(float64(plain.proc1.TotalAlloc-plain.proc0.TotalAlloc), ops), "B")
	set("proc.gc_cycles", float64(plain.proc1.NumGC-plain.proc0.NumGC), "count")
	set("proc.gc_pause_ms_total", float64(plain.proc1.PauseNs-plain.proc0.PauseNs)/1e6, "ms")
	set("gen.late_ms_p99", plain.lateP99(), "ms")
	set("host.steal_frac", plain.steal, "frac")
	set("gen.cpu_frac", plain.genCPUFrac(), "frac")
	base := (plain.serverCPUPerOp() + again.serverCPUPerOp()) / 2
	set("trace.overhead_frac", ratio(tr.serverCPUPerOp(), base)-1, "frac")
	for _, k := range []load.Kind{load.KGet, load.KRange, load.KPut} {
		set("latency."+k.String()+"_p99_ms", load.Percentile(lat[k], 99), "ms")
	}
	for _, k := range []load.Kind{load.KPut, load.KDelete} {
		set("latency."+k.String()+"_p50_ms", load.Median(lat[k]), "ms")
	}
	return m
}
