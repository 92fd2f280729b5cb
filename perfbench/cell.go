package main

import (
	"context"
	"fmt"
	"math/rand/v2"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"focc/fo"
	"focc/fo/srv"
)

// arrival is one scheduled request of an open-loop cell.
type arrival struct {
	due    time.Duration // send time, from the cell's start
	class  int
	tenant string
}

// schedule draws a Poisson arrival process at rate requests/s for d, with
// classes picked by weight and tenants uniformly. The same rng state gives
// the same schedule.
func schedule(rng *rand.Rand, w workload, tenants []string, rate float64, d time.Duration) []arrival {
	total := 0
	for _, c := range w.classes {
		total += c.weight
	}
	var arr []arrival
	for t := time.Duration(0); ; {
		t += time.Duration(rng.ExpFloat64() / rate * float64(time.Second))
		if t >= d {
			return arr
		}
		pick := rng.IntN(total)
		ci := 0
		for pick >= w.classes[ci].weight {
			pick -= w.classes[ci].weight
			ci++
		}
		arr = append(arr, arrival{due: t, class: ci, tenant: tenants[rng.IntN(len(tenants))]})
	}
}

// result is what the client saw of one request. The span fields are
// offsets from the process epoch, filled only in traced cells: the client
// stamps the Submit call, the traced instance the handle call it contains.
type result struct {
	lag, lat  time.Duration
	verdict   verdict
	outcome   fo.Outcome
	submitted bool   // Submit returned a response, not an error
	wrong     string // what differed, for a wrong reply

	submitStart, submitEnd time.Duration
	handleStart, handleEnd time.Duration
}

// spanKey carries a request's *result in its context, so the traced
// instance can stamp the handle span. The engine passes the request's
// context to the instance only because every request has a deadline;
// without one it substitutes its own.
type spanKey struct{}

var epoch = time.Now()

func sinceEpoch() time.Duration { return time.Since(epoch) }

// cell is one fixed-rate measurement.
type cell struct {
	name string
	rate float64
	dur  time.Duration
}

// cellRun is one cell's measured outcome. The cell's requests are folded
// into it as soon as the cell ends, so a pass keeps counts and latencies,
// not a record of every request it sent.
type cellRun struct {
	cell
	sum   summary
	spans spans // traced cells only
	lagOK bool
	grew  bool
	peak  int // most requests in flight at once
}

// client sends open-loop traffic to one router and judges the answers.
type client struct {
	w      workload
	rt     *srv.Router
	refs   []reply
	traced bool
}

// run sends c's arrivals on schedule from one generator goroutine, each
// request on a goroutine of its own so that a slow answer never delays a
// later send, waits for every answer and folds them into the cell's
// outcome. Latency counts from the scheduled send time, so a generator
// stall shows as latency and as lag.
func (d *client) run(c cell, arr []arrival) cellRun {
	res := make([]result, len(arr))
	inflightAt := make([]int, len(arr))
	var inflight atomic.Int64
	var wg sync.WaitGroup
	start := time.Now()
	for i := range arr {
		waitUntil(start.Add(arr[i].due))
		inflightAt[i] = int(inflight.Add(1))
		wg.Add(1)
		go func(a *arrival, r *result) {
			defer wg.Done()
			d.send(start.Add(a.due), d.w.limit, a, r)
			inflight.Add(-1)
		}(&arr[i], &res[i])
	}
	wg.Wait()
	run := cellRun{
		cell: c,
		sum:  d.tally(arr, res),
		grew: backlogGrew(inflightAt, c.rate*d.w.limit.Seconds()),
	}
	if d.traced {
		run.spans = d.spansOf(arr, res)
	}
	for _, n := range inflightAt {
		run.peak = max(run.peak, n)
	}
	run.lagOK = lagValid(run.sum.lags, d.allowedLag())
	d.describe(run)
	return run
}

// describe prints one line per cell, for a reader of the output.
func (d *client) describe(run cellRun) {
	s := run.sum
	lag := func(q float64) float64 { return quantile(s.lags, q) * 1e3 }
	lat := func(q float64) float64 { v, _ := d.legitMS(s.legitLat, q); return v }
	fmt.Printf("# %-7s %7.0f req/s sent %6d  lag p50/p99 %6.3f/%6.3f ms  legit p50/p99 %7.3f/%7.3f ms  fail %.4f  peak %d\n",
		run.name, run.rate, s.sent, lag(0.5), lag(0.99), lat(0.5), lat(0.99), s.failShare(), run.peak)
}

// allowedLag is how late the generator may run at the median before a
// cell is invalid: a quarter of the latency limit.
func (d *client) allowedLag() time.Duration { return d.w.limit / 4 }

// send submits one request due at due with a deadline of limit after it,
// and records what the client saw.
func (d *client) send(due time.Time, limit time.Duration, a *arrival, r *result) {
	ctx := context.Background()
	if d.traced {
		ctx = context.WithValue(ctx, spanKey{}, r)
	}
	ctx, cancel := context.WithDeadline(ctx, due.Add(limit))
	defer cancel()
	t0 := time.Now()
	r.lag = t0.Sub(due)
	resp, err := d.rt.Submit(ctx, a.tenant, d.w.classes[a.class].req)
	t1 := time.Now()
	r.lat = t1.Sub(due)
	r.submitted = err == nil
	r.outcome = resp.Outcome
	r.verdict = judge(resp, err, r.lat, limit, d.refs[a.class])
	if r.verdict == wrong {
		r.wrong = fmt.Sprintf("%s %q answered %v %d %.80q (%v), reference %v %d %.80q",
			a.tenant, d.w.classes[a.class].req.Op, resp.Outcome, resp.Status, resp.Body, resp.Err,
			d.refs[a.class].outcome, d.refs[a.class].status, d.refs[a.class].body)
	}
	if d.traced {
		r.submitStart, r.submitEnd = t0.Sub(epoch), t1.Sub(epoch)
	}
}

// waitUntil returns at t. The runtime's timers wake up to a millisecond
// late, and a sleeping system call holds its scheduler slot, so it sleeps
// only the part of the wait beyond spinSlack and yields the processor in a
// loop for the rest.
func waitUntil(t time.Time) {
	for {
		d := time.Until(t)
		switch {
		case d <= 0:
			return
		case d > spinSlack:
			time.Sleep(d - spinSlack)
		default:
			runtime.Gosched()
		}
	}
}

const spinSlack = 1500 * time.Microsecond

// summary is the client-side accounting of a set of requests.
type summary struct {
	sent, legit, legitFailed, legitGood, good, wrong int
	refused, rewound, crashed                        int
	wrongReplies                                     []string        // the first few
	legitLat                                         []time.Duration // sorted; failures as failed
	lags                                             []time.Duration
}

// tally folds one cell's requests and what the client saw of them.
func (d *client) tally(arr []arrival, res []result) summary {
	var s summary
	for i, r := range res {
		s.sent++
		s.lags = append(s.lags, r.lag)
		switch r.verdict {
		case good:
			s.good++
		case wrong:
			s.wrong++
			if len(s.wrongReplies) < 3 {
				s.wrongReplies = append(s.wrongReplies, r.wrong)
			}
		case refused:
			s.refused++
		}
		if r.submitted && r.outcome == fo.OutcomeRewound {
			s.rewound++
		}
		if r.submitted && r.outcome.Crashed() {
			s.crashed++
		}
		if d.w.classes[arr[i].class].attack() {
			continue
		}
		s.legit++
		if r.verdict == good {
			s.legitGood++
			s.legitLat = append(s.legitLat, r.lat)
			continue
		}
		// A late answer missed its deadline: it counts as timed out.
		s.legitFailed++
		s.legitLat = append(s.legitLat, failed)
	}
	slices.Sort(s.legitLat)
	return s
}

// summarize merges the accounting of several cells.
func summarize(runs ...cellRun) summary {
	var s summary
	for _, run := range runs {
		s.add(run.sum)
	}
	slices.Sort(s.legitLat)
	return s
}

// add merges o into s; s.legitLat is left unsorted.
func (s *summary) add(o summary) {
	s.sent += o.sent
	s.legit += o.legit
	s.legitFailed += o.legitFailed
	s.legitGood += o.legitGood
	s.good += o.good
	s.wrong += o.wrong
	s.refused += o.refused
	s.rewound += o.rewound
	s.crashed += o.crashed
	for _, w := range o.wrongReplies {
		if len(s.wrongReplies) < 3 {
			s.wrongReplies = append(s.wrongReplies, w)
		}
	}
	s.legitLat = append(s.legitLat, o.legitLat...)
	s.lags = append(s.lags, o.lags...)
}

func (s summary) failShare() float64 {
	if s.legit == 0 {
		return 0
	}
	return float64(s.legitFailed) / float64(s.legit)
}

// sustains reports whether a rung (one or more cells at its rate) meets
// the workload's limits: the generator kept its schedule, legitimate p99
// (failures counted as missing the limit) is within the latency limit, the
// failed share within its limit, and the backlog did not grow.
func (d *client) sustains(rung []cellRun) (bool, string) {
	s := summarize(rung...)
	p99, ok := percentile(s.legitLat, 0.99)
	for _, run := range rung {
		switch {
		case !run.lagOK:
			return false, "generator fell behind"
		case run.grew:
			return false, "backlog grew"
		}
	}
	switch {
	case !ok:
		return false, fmt.Sprintf("too few samples for p99 (%d)", len(s.legitLat))
	case p99 > d.w.limit:
		return false, "p99 over the limit"
	case s.failShare() > failLimit:
		return false, fmt.Sprintf("fail share %.4f", s.failShare())
	}
	return true, ""
}
