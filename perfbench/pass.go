package main

import (
	"fmt"
	"math/rand/v2"
	"runtime/metrics"
	"sync"
	"time"

	"focc/fo/srv"
)

// plan lays out one pass of about total measuring time: a warm-up at the
// high rate; then, for each rung of the rate ladder in ascending order, a
// round of the low and high cells followed by the rung; then the overload
// cell. The latency at low and high is the median over the rounds. The
// rounds are spread through the pass because the process's speed drifts
// over tens of seconds, with the host and with the program's growing heap,
// so that one disturbed round or one slow stretch does not move it.
// Without a warm-up at the high rate, the first high cell of a run often
// ran several times slower than the rest.
func (w workload) plan(total time.Duration) []cell {
	units := 2 + len(w.ladder)*(1+1+3) + overCells*3
	unit := total / time.Duration(units)
	cells := []cell{{"warmup", w.high, 2 * unit}}
	for _, r := range w.ladder {
		cells = append(cells, cell{"low", w.low, unit}, cell{"high", w.high, unit}, cell{"ladder", r, 3 * unit})
	}
	for range overCells {
		cells = append(cells, cell{"settle", w.low, unit}, cell{"over", w.over, 2 * unit})
	}
	return cells
}

// overCells is how many overload cells a pass measures, each after a
// settling cell at the low rate. Under overload a run falls into more or
// less wasteful queueing by chance, so goodput is taken over several cells.
const overCells = 3

// passResult is everything one pass measured.
type passResult struct {
	cells   []cellRun     // in plan order, warm-up first
	retried []cellRun     // attempts sent again because the generator fell behind
	wall    time.Duration // measured cells, warm-up excluded
	stats   srv.RouterStats
	// violations lists broken invariants: wrong replies, counters that
	// disagree with the answers clients saw, a failed post-attack probe.
	violations []string
	attempted  int

	scrapes    []time.Duration // Router.Metrics call times
	heapPeak   uint64          // bytes of live heap objects, sampled
	gcCPUShare float64
	spawns     []time.Duration // instance creations after set-up (traced)
}

// of returns the pass's cells named name, in plan order.
func (p passResult) of(name string) []cellRun {
	var runs []cellRun
	for _, run := range p.cells {
		if run.name == name {
			runs = append(runs, run)
		}
	}
	return runs
}

// measured returns every cell but the warm-up.
func (p passResult) measured() []cellRun { return p.cells[1:] }

// valid returns the pass's cells named name in which the generator kept
// to schedule. When it kept to schedule in none of them, it returns them
// all and says so: latency counts from each request's due time, so a late
// generator makes those figures worse, never better.
func (p passResult) valid(name string) []cellRun {
	all := p.of(name)
	var runs []cellRun
	for _, run := range all {
		if run.lagOK {
			runs = append(runs, run)
		}
	}
	if len(runs) == 0 && len(all) > 0 {
		fmt.Printf("# every %s cell is invalid: its figures include the generator's lateness\n", name)
		return all
	}
	return runs
}

// maxRetries is how often a reported cell is measured again when its
// generator fell behind. A cell still behind after that stays in the pass,
// marked invalid: its figures are left out wherever a valid cell of the
// same name gives them (see valid). A loaded host, not the program, makes
// the generator fall behind, so that is no reason to fail the run.
const maxRetries = 2

// pass builds a fleet for w, drives the planned cells through it and
// closes it. With traced set, the fleet serves traced instances and every
// request records its spans.
func pass(w workload, seed uint64, total time.Duration, traced bool) (passResult, error) {
	var res passResult
	server, err := srv.New(w.server)
	if err != nil {
		return res, err
	}
	refs, err := references(server, w)
	if err != nil {
		return res, err
	}
	spawns := &spawnLog{}
	if traced {
		server = tracedServer{Server: server, spawns: spawns}
	}
	rt, err := srv.NewRouter(server, w.mode, w.options...)
	if err != nil {
		return res, err
	}
	defer rt.Close() // on error paths; Close is idempotent
	setupSpawns := spawns.count()
	d := &client{w: w, rt: rt, refs: refs, traced: traced}
	tenants := make([]string, w.tenants)
	for i := range tenants {
		tenants[i] = fmt.Sprintf("tenant-%03d", i)
	}
	cells := w.plan(total)
	runCell := func(i int) cellRun {
		c := cells[i]
		reported := c.name == "low" || c.name == "high" || c.name == "over"
		for attempt := 0; ; attempt++ {
			rng := rand.New(rand.NewPCG(seed, uint64(i)<<8|uint64(attempt)))
			run := d.run(c, schedule(rng, w, tenants, c.rate, c.dur))
			if run.lagOK || !reported {
				return run
			}
			if attempt == maxRetries {
				fmt.Printf("# %s cell at %.0f req/s: generator fell behind in %d attempts; the cell is invalid\n", c.name, c.rate, attempt+1)
				return run
			}
			// The fleet served the discarded attempt: its answers still
			// count for correctness and for the counters.
			res.retried = append(res.retried, run)
		}
	}

	res.cells = append(res.cells, runCell(0))
	poll, gc0, t0 := startPoller(rt), readCPU(), time.Now()
	for i := 1; i < len(cells); i++ {
		res.cells = append(res.cells, runCell(i))
	}
	res.wall = time.Since(t0)
	res.gcCPUShare = readCPU().gcShare(gc0)
	res.scrapes, res.heapPeak = poll.stop()
	probe := d.afterAttack(tenants)
	// Counters are read only once every answer is in and Close has joined
	// the workers: Stats is not yet causally ordered with responses.
	rt.Close()
	res.stats = rt.Stats()
	res.spawns = spawns.since(setupSpawns)

	s := summarize(append(res.retried, res.cells...)...)
	res.attempted = s.sent + probe.sent
	if n := s.wrong + probe.wrong; n > 0 {
		res.violations = append(res.violations, fmt.Sprintf("%d replies differ from a fresh instance's", n))
		res.violations = append(res.violations, append(s.wrongReplies, probe.wrongReplies...)...)
	}
	if got, want := res.stats.Crashes, uint64(s.crashed+probe.crashed); got != want {
		res.violations = append(res.violations, fmt.Sprintf("Stats.Crashes = %d, clients saw %d crashes", got, want))
	}
	if got, want := res.stats.Rewound, uint64(s.rewound+probe.rewound); got != want {
		res.violations = append(res.violations, fmt.Sprintf("Stats.Rewound = %d, clients saw %d rewound replies", got, want))
	}
	// Every crash is followed by a restart, except one per worker that Close
	// may interrupt in its restart backoff.
	if c, r := res.stats.Crashes, res.stats.Restarts; r > c || c-r > workers {
		res.violations = append(res.violations, fmt.Sprintf("Stats.Restarts = %d after %d crashes", r, c))
	}
	return res, nil
}

// probeLimit is the deadline of the sequential requests afterAttack sends
// to an idle fleet: long enough that only a broken reply, not a collection
// pause, can miss it.
const probeLimit = 5 * time.Second

// afterAttack sends, on each shard in turn, one attack and then one request
// of every legitimate class, sequentially: an attack may not leave state
// that changes the next legitimate reply — rolled back under rewind, a
// fresh instance under bounds checking.
func (d *client) afterAttack(tenants []string) summary {
	var s summary
	seen := map[int]bool{}
	for _, tenant := range tenants {
		shard := d.rt.Shard(tenant)
		if seen[shard] {
			continue
		}
		seen[shard] = true
		var arr []arrival
		for i, c := range d.w.classes {
			if c.attack() {
				arr = append([]arrival{{class: i, tenant: tenant}}, arr...)
			} else {
				arr = append(arr, arrival{class: i, tenant: tenant})
			}
		}
		res := make([]result, len(arr))
		for i := range arr {
			d.send(time.Now(), probeLimit, &arr[i], &res[i])
			if v := res[i].verdict; v != good {
				// A sequential request on an idle fleet has no load
				// excuse: anything but the reference reply in time is
				// wrong.
				if v != wrong {
					res[i].wrong = fmt.Sprintf("%s %q on an idle fleet: verdict %d", tenant, d.w.classes[arr[i].class].req.Op, v)
				}
				res[i].verdict = wrong
			}
		}
		s.add(d.tally(arr, res))
	}
	return s
}

// poller scrapes Router.Metrics at a fixed rate during a pass, as a
// monitoring system would, timing each scrape, and samples the live heap.
type poller struct {
	stopc   chan struct{}
	wg      sync.WaitGroup
	scrapes []time.Duration
	heap    uint64
}

const pollEvery = 5 * time.Millisecond

func startPoller(rt *srv.Router) *poller {
	p := &poller{stopc: make(chan struct{})}
	p.wg.Add(1)
	go func() {
		defer p.wg.Done()
		tick := time.NewTicker(pollEvery)
		defer tick.Stop()
		sample := []metrics.Sample{{Name: "/memory/classes/heap/objects:bytes"}}
		for {
			select {
			case <-p.stopc:
				return
			case <-tick.C:
			}
			t0 := time.Now()
			_ = rt.Metrics()
			p.scrapes = append(p.scrapes, time.Since(t0))
			metrics.Read(sample)
			p.heap = max(p.heap, sample[0].Value.Uint64())
		}
	}()
	return p
}

// stop ends the poller and returns its scrape times and heap peak.
func (p *poller) stop() ([]time.Duration, uint64) {
	close(p.stopc)
	p.wg.Wait()
	return p.scrapes, p.heap
}

// cpuTimes are the runtime's cumulative CPU-time estimates.
type cpuTimes struct{ gc, total float64 }

func readCPU() cpuTimes {
	s := []metrics.Sample{
		{Name: "/cpu/classes/gc/total:cpu-seconds"},
		{Name: "/cpu/classes/total:cpu-seconds"},
	}
	metrics.Read(s)
	return cpuTimes{s[0].Value.Float64(), s[1].Value.Float64()}
}

// gcShare is the share of CPU time spent in garbage collection since
// start.
func (c cpuTimes) gcShare(start cpuTimes) float64 {
	if c.total <= start.total {
		return 0
	}
	return (c.gc - start.gc) / (c.total - start.total)
}
