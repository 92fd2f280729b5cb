package main

import (
	"context"
	"runtime"
	"time"

	"focc/fo/srv"
	"focc/internal/interp"
	"focc/internal/servers/registry"
)

// metric is one named figure with its unit.
type metric struct {
	name  string
	value float64
	unit  string
}

// workers is the fleet's serving-worker count (two shards of one worker);
// busy shares are taken against workers × wall time.
const workers = 2

// seqPerClass is how many requests of each class the sequential pass
// measures.
const seqPerClass = 20

// frontEnd times the one-off program preparation: compiling the server's C
// source (cc) and lowering it to the execution IR (interp). Both are
// cached for the process, so this must run before any instance exists.
func frontEnd(w workload) (compile, lower time.Duration, err error) {
	t0 := time.Now()
	p, err := registry.Program(w.server)
	if err != nil {
		return 0, 0, err
	}
	t1 := time.Now()
	p.Compiled()
	return t1.Sub(t0), time.Since(t1), nil
}

// instanceCost is the per-request cost of one class on an unloaded
// instance.
type instanceCost struct {
	simUS, allocs, events float64
}

// sequential measures every class key on unloaded instances, one request
// at a time: simulated time, heap allocations and memory-error events per
// request. An instance that dies is replaced outside the measurement.
func sequential(w workload) (map[string]instanceCost, error) {
	server, err := srv.New(w.server)
	if err != nil {
		return nil, err
	}
	costs := map[string]instanceCost{}
	for _, key := range classKeys {
		var reqs []srv.Request
		for _, c := range w.classes {
			if c.key == key {
				reqs = append(reqs, c.req)
			}
		}
		if len(reqs) == 0 {
			continue
		}
		var inst srv.Instance
		var cost instanceCost
		var ms runtime.MemStats
		for i := 0; i < seqPerClass; i++ {
			if inst == nil || !inst.Alive() {
				if inst != nil {
					releaseInstance(inst)
				}
				if inst, err = server.New(w.mode); err != nil {
					return nil, err
				}
			}
			cycles := inst.Cycles()
			runtime.ReadMemStats(&ms)
			mallocs := ms.Mallocs
			resp := inst.HandleContext(context.Background(), reqs[i%len(reqs)])
			runtime.ReadMemStats(&ms)
			cost.allocs += float64(ms.Mallocs - mallocs)
			cost.simUS += interp.SimSeconds(inst.Cycles()-cycles) * 1e6
			e := resp.MemErrors
			cost.events += float64(e.InvalidReads + e.InvalidWrites + e.Denied)
		}
		releaseInstance(inst)
		costs[key] = instanceCost{cost.simUS / seqPerClass, cost.allocs / seqPerClass, cost.events / seqPerClass}
	}
	return costs, nil
}

// servingAllocs is the serving layer's heap allocations per request: small
// requests submitted one at a time through a fleet configured like the
// workload's, minus what the instance allocates for the same requests.
func servingAllocs(w workload, inst map[string]instanceCost) (float64, error) {
	server, err := srv.New(w.server)
	if err != nil {
		return 0, err
	}
	rt, err := srv.NewRouter(server, w.mode, w.options...)
	if err != nil {
		return 0, err
	}
	defer rt.Close()
	var reqs []srv.Request
	for _, c := range w.classes {
		if c.key == "small" {
			reqs = append(reqs, c.req)
		}
	}
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	const n = 100
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	mallocs := ms.Mallocs
	for i := 0; i < n; i++ {
		if _, err := rt.Submit(ctx, "tenant-000", reqs[i%len(reqs)]); err != nil {
			return 0, err
		}
	}
	runtime.ReadMemStats(&ms)
	return float64(ms.Mallocs-mallocs)/n - inst["small"].allocs, nil
}

// layerMetrics derives the per-layer figures of a traced pass. plain is the
// untraced pass of the same seed, for the tracing overhead.
func layerMetrics(w workload, d *client, tr, plain passResult, compile, lower time.Duration,
	costs map[string]instanceCost, serveAllocs float64) []metric {
	runs := tr.measured()
	s := summarize(runs...)
	// Spans come from the low and high cells, where queues stay short, so
	// they show each layer's own cost rather than time spent queued at the
	// ladder and overload rates. Busy shares cover every measured cell.
	var sp spans
	for _, run := range append(tr.valid("low"), tr.valid("high")...) {
		sp.add(run.spans)
	}
	var busy time.Duration
	for _, run := range runs {
		busy += run.spans.busy
	}
	var spawnBusy time.Duration
	for _, t := range tr.spawns {
		spawnBusy += t
	}
	capacity := float64(workers) * tr.wall.Seconds()
	peak := 0
	for _, run := range runs {
		peak = max(peak, run.peak)
	}
	us := func(ds []time.Duration, q float64) float64 { return quantile(ds, q) * 1e6 }

	m := []metric{
		{"gen.lag_p99_ms", quantile(s.lags, 0.99) * 1e3, "ms"},
		{"gen.inflight_peak", float64(peak), "count"},
		{"cc.compile_ms", compile.Seconds() * 1e3, "ms"},
		{"interp.lower_ms", lower.Seconds() * 1e3, "ms"},
		{"spawn.count", float64(len(tr.spawns)), "count"},
		{"spawn.ms_p50", quantile(tr.spawns, 0.5) * 1e3, "ms"},
		{"spawn.busy_share", spawnBusy.Seconds() / capacity, "ratio"},
	}
	for _, key := range classKeys {
		m = append(m,
			metric{"instance.handle_us_p50." + key, us(sp.handle[key], 0.5), "us"},
			metric{"instance.handle_us_p99." + key, us(sp.handle[key], 0.99), "us"})
	}
	m = append(m,
		metric{"instance.handle_us_p50.commit", us(sp.handle["commit"], 0.5), "us"},
		metric{"instance.handle_us_p50.rewound", us(sp.handle["rewound"], 0.5), "us"},
		metric{"instance.busy_share", busy.Seconds() / capacity, "ratio"})
	for _, key := range classKeys {
		c := costs[key]
		m = append(m,
			metric{"instance.sim_us." + key, c.simUS, "us"},
			metric{"instance.allocs." + key, c.allocs, "count"},
			metric{"instance.events." + key, c.events, "count"})
	}
	batch := batchSize(tr.stats)
	m = append(m,
		metric{"serve.pre_us_p50", us(sp.pre, 0.5), "us"},
		metric{"serve.pre_us_p99", us(sp.pre, 0.99), "us"},
		metric{"serve.post_us_p50", us(sp.post, 0.5), "us"},
		metric{"serve.self_us_p50", us(sp.self, 0.5), "us"},
		metric{"serve.allocs_per_req", serveAllocs, "count"},
		metric{"serve.batch_size_mean", batch, "count"},
		metric{"serve.refused_share", float64(s.refused) / float64(s.sent), "ratio"},
		metric{"serve.useful_share", float64(s.good) / float64(s.sent), "ratio"},
		metric{"serve.restarts", float64(tr.stats.Restarts), "count"},
		metric{"serve.rewound", float64(tr.stats.Rewound), "count"},
		metric{"serve.rebalanced", float64(tr.stats.Rebalanced), "count"},
		metric{"telemetry.scrape_us_p50", us(tr.scrapes, 0.5), "us"},
		metric{"telemetry.scrape_us_p99", us(tr.scrapes, 0.99), "us"},
		metric{"go.gc_cpu_share", tr.gcCPUShare, "ratio"},
		metric{"go.heap_peak_mb", float64(tr.heapPeak) / (1 << 20), "MB"},
		metric{"fail_share", summarize(append(plain.valid("low"), plain.valid("high")...)...).failShare(), "ratio"},
		// Latency at fixed rates and the sustained rate are outcomes,
		// measured untraced, but too unsteady between runs on a shared
		// two-CPU host to serve as bounded gates: the host's speed shifts by
		// tens of percent over minutes, sub-millisecond medians follow it,
		// and the rate at which p99 crosses the limit moves further still.
		metric{"sustained_rps", d.sustained(plain), "1/s"},
		metric{"p50_ms.low", d.latencyMS(plain.valid("low"), 0.5), "ms"},
		metric{"p50_ms.high", d.latencyMS(plain.valid("high"), 0.5), "ms"},
		metric{"p99_ms.low", d.pooledMS(plain.valid("low"), 0.99), "ms"},
		metric{"p99_ms.high", d.pooledMS(plain.valid("high"), 0.99), "ms"},
		metric{"trace.overhead_share", overhead(d, tr, plain), "ratio"},
		metric{"trace.batch_size_ratio", ratio(batch, batchSize(plain.stats)), "ratio"},
	)
	return m
}

// pooledMS is a legitimate-latency percentile over all the cells' requests,
// in milliseconds, as legitMS gives it.
func (d *client) pooledMS(runs []cellRun, q float64) float64 {
	v, _ := d.legitMS(summarize(runs...).legitLat, q)
	return v
}

// overhead is the tracing overhead: the traced pass's median legitimate
// latency at the low and high rates against the untraced pass's, minus
// one.
func overhead(d *client, tr, plain passResult) float64 {
	p50 := func(p passResult) float64 { return d.pooledMS(append(p.valid("low"), p.valid("high")...), 0.5) }
	return ratio(p50(tr), p50(plain)) - 1
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
