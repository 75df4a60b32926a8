package load

import (
	"cmp"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"syscall"
	"time"
)

// Sample is the outcome of one HTTP request. Times are offsets from
// the start of the phase.
type Sample struct {
	Kind Kind
	// ID is the span id sent with the request, so the server's handler
	// span for it can be found.
	ID uint64
	// Due is when the request was due: its scheduled send time in an
	// open loop, the time the previous request on the connection ended
	// in a closed loop or inside a triple.
	Due  time.Duration
	Sent time.Duration
	Done time.Duration
	// Bytes is the body length sent or received.
	Bytes int
	Err   error
}

// Latency is the time from due to done, which counts any wait a stall
// imposed on a request that was due while an earlier one was stuck.
func (s Sample) Latency() time.Duration { return s.Done - s.Due }

// Exec runs one schedule entry on worker w and appends its samples to
// out. base is the phase start and due the time the entry was due.
type Exec func(w int, op Op, base, due time.Time, out []Sample) []Sample

// OpenLoopResult is what an open-loop phase observed.
type OpenLoopResult struct {
	Samples []Sample // in order of due time
	// Late holds, per entry, how far behind its due time the
	// dispatcher handed it to the workers: the generator's own lag,
	// apart from any wait for a free connection.
	Late []time.Duration
}

// OpenLoop sends ops on their schedule over conns workers, one
// connection each. A dispatcher hands each entry to the workers when
// it falls due, whether or not earlier ones have finished; an entry
// due while every worker is busy waits for one, and that wait counts
// in its latency because latency runs from the due time.
func OpenLoop(ops []Op, conns int, exec Exec) OpenLoopResult {
	res := OpenLoopResult{Late: make([]time.Duration, len(ops))}
	// One slot per entry: the dispatcher never blocks on a busy pool.
	queue := make(chan int, len(ops))
	base := time.Now()
	outs := make([][]Sample, conns)
	var wg sync.WaitGroup
	for w := 0; w < conns; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range queue {
				outs[w] = exec(w, ops[i], base, base.Add(ops[i].Due), outs[w])
			}
		}()
	}
	runtime.LockOSThread()
	defer runtime.UnlockOSThread()
	for i, op := range ops {
		due := base.Add(op.Due)
		sleepUntil(due)
		res.Late[i] = time.Since(due)
		queue <- i
	}
	close(queue)
	wg.Wait()
	res.Samples = byDue(outs)
	return res
}

// ClosedLoop runs step for i = 0, 1, ..., n-1 over conns workers with
// no think time, each worker taking the next i as soon as its last
// step ends, until dur has passed (when dur > 0) or the steps run out.
// It returns the samples in order of due time and the time until the
// last step ended.
func ClosedLoop(n, conns int, dur time.Duration, step func(w, i int, base time.Time, out []Sample) []Sample) ([]Sample, time.Duration) {
	base := time.Now()
	deadline := base.Add(dur)
	var next atomic.Int64
	outs := make([][]Sample, conns)
	var wg sync.WaitGroup
	for w := 0; w < conns; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for dur <= 0 || time.Now().Before(deadline) {
				i := int(next.Add(1) - 1)
				if i >= n {
					return
				}
				outs[w] = step(w, i, base, outs[w])
			}
		}()
	}
	wg.Wait()
	return byDue(outs), time.Since(base)
}

// byDue merges the workers' samples in order of due time.
func byDue(outs [][]Sample) []Sample {
	var all []Sample
	for _, o := range outs {
		all = append(all, o...)
	}
	slices.SortStableFunc(all, func(a, b Sample) int { return cmp.Compare(a.Due, b.Due) })
	return all
}

// sleepUntil blocks the calling goroutine's thread until t. Go's
// timers can wake up to a millisecond late on Linux, whose netpoller
// waits in whole milliseconds; nanosleep on the caller's locked thread
// wakes within tens of microseconds on an idle host.
func sleepUntil(t time.Time) {
	for d := time.Until(t); d > 0; d = time.Until(t) {
		ts := syscall.NsecToTimespec(int64(d))
		if err := syscall.Nanosleep(&ts, nil); err != nil && err != syscall.EINTR {
			time.Sleep(d)
		}
	}
}
