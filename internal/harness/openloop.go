package harness

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math/rand"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"focc/fo"
	"focc/internal/serve"
	"focc/internal/servers"
)

// ClusterConfig parameterizes the open-loop cluster experiment: a sharded
// serve.Router driven by Poisson arrivals at a configured offered rate,
// independent of completions — the arrival process does not slow down when
// the cluster does, which is what makes overload visible (a closed-loop
// generator like Loadtest self-throttles and can never offer 2×).
type ClusterConfig struct {
	// Shards is the router's shard count; 0 means 2.
	Shards int
	// PoolSize is each shard's worker count; 0 means 2.
	PoolSize int
	// QueueDepth bounds each shard's admission queue; 0 means 32.
	QueueDepth int
	// Tenants is the number of distinct tenant keys arrivals draw from;
	// 0 means 8.
	Tenants int
	// Quota caps each tenant's in-flight requests (0 = no quotas).
	Quota int
	// SLO is the per-request deadline and the goodput threshold: a request
	// answered OK within SLO counts toward goodput. 0 means 50ms.
	SLO time.Duration
	// TargetP95 enables the router's AIMD concurrency limit at this target
	// (0 = AIMD off).
	TargetP95 time.Duration
	// Rate is the offered arrival rate in requests/second. Required.
	Rate float64
	// Duration is how long arrivals are generated; 0 means 1s.
	Duration time.Duration
	// Chaos is per-shard chaos injection (zero = none).
	Chaos serve.ChaosConfig
	// AttackEvery submits the server's attack request on every n-th
	// arrival of each generator group (0 = legitimate traffic only).
	// Under crashing modes the attacks trip shard breakers, which is how
	// the rebalance-under-chaos cell keeps the ring churning.
	AttackEvery int
	// BreakerAfter and BreakerCooldown override each shard's restart-storm
	// circuit breaker (both zero = the engine defaults), so a cell can make
	// breaker trips — and therefore cross-shard rebalancing — frequent
	// enough to observe within its generation window.
	BreakerAfter    int
	BreakerCooldown time.Duration
	// Seed drives the arrival process and tenant picks; 0 means 1.
	Seed int64
}

func (c *ClusterConfig) defaults() {
	if c.Shards <= 0 {
		c.Shards = 2
	}
	if c.PoolSize <= 0 {
		c.PoolSize = 2
	}
	if c.QueueDepth <= 0 {
		c.QueueDepth = 32
	}
	if c.Tenants <= 0 {
		c.Tenants = 8
	}
	if c.SLO <= 0 {
		c.SLO = 50 * time.Millisecond
	}
	if c.Duration <= 0 {
		c.Duration = time.Second
	}
	if c.Seed == 0 {
		c.Seed = 1
	}
}

// ClusterResult is one cell of the goodput-under-overload curve.
type ClusterResult struct {
	Mode  string
	Chaos bool
	// Load is the offered-load multiplier this cell was run at (informational).
	Load float64
	// Rate is the configured offered arrival rate (req/s).
	Rate float64
	// Offered counts generated arrivals; Served counts OK responses;
	// SLOGood counts OK responses within the SLO.
	Offered, Served, SLOGood int
	// Clients is the number of simulated clients this cell drove: each
	// open-loop arrival is an independent client interaction (its own
	// goroutine, submitted regardless of how many are still in flight), so
	// Clients == Offered. Named separately because it is the scale knob the
	// 100k-client cell is sized by.
	Clients int
	// InFlightPeak is the highest number of simultaneously outstanding
	// client requests observed.
	InFlightPeak int64
	// GenSeconds is the actual wall-clock time the slowest generator group
	// took to emit its arrivals — the honesty metric for the offered rate:
	// when generation cannot keep up with the configured Rate it exceeds
	// Duration, and Goodput is computed over it, not the configured window.
	GenSeconds float64
	// Goodput is SLO-meeting responses per second of generation time.
	Goodput float64
	// Latency percentiles over served (OK) requests, in ns.
	P50, P95, P99 time.Duration
	// Rejections by cause, plus engine supervision counters.
	Shed, Rejected, OverQuota, OverLimit uint64
	Timeouts, Restarts, Recycles         uint64
	// Rebalanced counts requests rerouted off a breaker-tripped home shard.
	Rebalanced uint64
	// Errors counts submissions that failed for any reason other than the
	// admission-control errors above (should be zero).
	Errors int
}

// ClusterCapacity estimates the fleet's sustainable service rate (OK
// responses per second) with a short closed-loop burst at full concurrency
// — the 1× baseline the overload multipliers scale from.
func ClusterCapacity(srv servers.Server, mode fo.Mode, cfg ClusterConfig) (float64, error) {
	cfg.defaults()
	rt, err := newClusterRouter(srv, mode, cfg, serve.ChaosConfig{})
	if err != nil {
		return 0, err
	}
	defer rt.Close()
	clients := cfg.Shards * cfg.PoolSize * 2
	const warm = 50 * time.Millisecond
	const measure = 300 * time.Millisecond
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			tenant := fmt.Sprintf("tenant-%d", c%cfg.Tenants)
			req := srv.LegitRequests()[0]
			for {
				select {
				case <-stop:
					return
				default:
				}
				rt.Submit(context.Background(), tenant, req)
			}
		}(c)
	}
	time.Sleep(warm)
	before := rt.Stats().Served
	time.Sleep(measure)
	served := rt.Stats().Served - before
	close(stop)
	wg.Wait()
	return float64(served) / measure.Seconds(), nil
}

// genGroup is one generator group's private state: its own PRNG, arrival
// schedule, and completion accounting, so groups share nothing on the hot
// path — the single-core version serialized every completion through one
// mutex and one latency slice, which capped the harness at roughly one
// core's worth of generation no matter how many the runner had.
type genGroup struct {
	offered int

	mu        sync.Mutex // guards the completion accounting below
	latencies []time.Duration
	served    int
	sloGood   int
	failures  int
}

func (g *genGroup) record(lat time.Duration, slo time.Duration, ok bool) {
	g.mu.Lock()
	defer g.mu.Unlock()
	if !ok {
		g.failures++
		return
	}
	g.served++
	g.latencies = append(g.latencies, lat)
	if lat <= slo {
		g.sloGood++
	}
}

// ClusterRun drives the router open loop: Poisson arrivals at cfg.Rate for
// cfg.Duration, every arrival submitted immediately on its own goroutine
// regardless of how many are still in flight. Generation and completion
// accounting are sharded across GOMAXPROCS generator groups — each group
// runs an independent Poisson process at Rate/W (the superposition of
// independent Poisson processes is a Poisson process at the summed rate),
// stamps arrivals from its own PRNG (Seed+group), and accumulates its own
// completions — so offered load scales with cores instead of saturating
// one generation loop.
func ClusterRun(srv servers.Server, mode fo.Mode, cfg ClusterConfig) (ClusterResult, error) {
	cfg.defaults()
	if cfg.Rate <= 0 {
		return ClusterResult{}, fmt.Errorf("harness: cluster offered rate %v: must be positive", cfg.Rate)
	}
	rt, err := newClusterRouter(srv, mode, cfg, cfg.Chaos)
	if err != nil {
		return ClusterResult{}, err
	}
	defer rt.Close()

	legit := srv.LegitRequests()[0]
	attack := srv.AttackRequest()
	res := ClusterResult{Mode: mode.String(), Chaos: cfg.Chaos.KillEvery > 0 || cfg.Chaos.LatencyEvery > 0, Rate: cfg.Rate}

	// Tenant keys are pre-formatted once: at 100k+ arrivals the per-arrival
	// fmt.Sprintf was a measurable slice of the generation budget.
	tenants := make([]string, cfg.Tenants)
	for i := range tenants {
		tenants[i] = fmt.Sprintf("tenant-%d", i)
	}

	workers := runtime.GOMAXPROCS(0)
	if workers < 1 {
		workers = 1
	}
	groups := make([]*genGroup, workers)
	var (
		inFlight     atomic.Int64
		inFlightPeak atomic.Int64
		genNanos     atomic.Int64 // slowest group's generation wall time
	)

	var gen sync.WaitGroup
	var wg sync.WaitGroup // outstanding submissions
	for w := 0; w < workers; w++ {
		g := &genGroup{}
		groups[w] = g
		gen.Add(1)
		go func(w int) {
			defer gen.Done()
			rng := rand.New(rand.NewSource(cfg.Seed + int64(w)))
			share := cfg.Rate / float64(workers)
			start := time.Now()
			next := start
			for {
				// Exponential inter-arrival gaps give the Poisson process;
				// when generation falls behind schedule (timer granularity,
				// CPU contention) arrivals fire back-to-back as a catch-up
				// burst, preserving the offered rate — which is exactly how
				// open-loop overload behaves.
				next = next.Add(time.Duration(rng.ExpFloat64() / share * float64(time.Second)))
				if next.Sub(start) > cfg.Duration {
					break
				}
				if d := time.Until(next); d > 100*time.Microsecond {
					time.Sleep(d)
				}
				g.offered++
				req := legit
				if cfg.AttackEvery > 0 && g.offered%cfg.AttackEvery == 0 {
					req = attack
				}
				tenant := tenants[rng.Intn(cfg.Tenants)]
				wg.Add(1)
				go func(req servers.Request) {
					defer wg.Done()
					if n := inFlight.Add(1); n > inFlightPeak.Load() {
						// Racy max is fine: the peak is a gauge, not an
						// invariant, and a lost update undercounts by a hair.
						inFlightPeak.Store(n)
					}
					defer inFlight.Add(-1)
					ctx, cancel := context.WithTimeout(context.Background(), cfg.SLO)
					defer cancel()
					t0 := time.Now()
					resp, err := rt.Submit(ctx, tenant, req)
					switch {
					case err == nil && resp.OK():
						g.record(time.Since(t0), cfg.SLO, true)
					case errors.Is(err, serve.ErrShed), errors.Is(err, serve.ErrQueueFull),
						errors.Is(err, serve.ErrOverQuota), errors.Is(err, serve.ErrOverLimit):
						// Admission control doing its job; counted from router stats.
					case err == nil:
						// Executed but not OK (crash under a crashing mode,
						// deadline expiry): counted from router stats.
					default:
						g.record(0, cfg.SLO, false)
					}
				}(req)
			}
			elapsed := time.Since(start).Nanoseconds()
			for {
				cur := genNanos.Load()
				if elapsed <= cur || genNanos.CompareAndSwap(cur, elapsed) {
					break
				}
			}
		}(w)
	}
	gen.Wait()
	wg.Wait()
	// Goodput is computed over the slowest group's actual generation time,
	// not the configured window: if the generators could not keep schedule
	// the cell reports the rate it really offered.
	genElapsed := time.Duration(genNanos.Load())
	if genElapsed < cfg.Duration {
		genElapsed = cfg.Duration
	}

	var latencies []time.Duration
	for _, g := range groups {
		res.Offered += g.offered
		res.Served += g.served
		res.SLOGood += g.sloGood
		res.Errors += g.failures
		latencies = append(latencies, g.latencies...)
	}
	res.Clients = res.Offered
	res.InFlightPeak = inFlightPeak.Load()
	res.GenSeconds = genElapsed.Seconds()
	res.Goodput = float64(res.SLOGood) / genElapsed.Seconds()
	res.P50, res.P95, res.P99 = percentiles(latencies)
	rt.Close() // joins every shard's workers, so a respawn still backing off is settled
	st := rt.Stats()
	res.Shed = st.Shed
	res.Rejected = st.Rejected
	res.OverQuota = st.OverQuota
	res.OverLimit = st.OverLimit
	res.Timeouts = st.Timeouts
	res.Restarts = st.Restarts
	res.Recycles = st.Recycles
	res.Rebalanced = st.Rebalanced
	return res, nil
}

func newClusterRouter(srv servers.Server, mode fo.Mode, cfg ClusterConfig, chaos serve.ChaosConfig) (*serve.Router, error) {
	shardOpts := []serve.Option{
		serve.WithPoolSize(cfg.PoolSize),
		serve.WithQueueDepth(cfg.QueueDepth),
	}
	if chaos.KillEvery > 0 || chaos.LatencyEvery > 0 {
		shardOpts = append(shardOpts, serve.WithChaos(chaos))
	}
	if cfg.BreakerAfter > 0 {
		shardOpts = append(shardOpts, serve.WithBreaker(cfg.BreakerAfter, cfg.BreakerCooldown))
	}
	opts := []serve.RouterOption{
		serve.WithShards(cfg.Shards),
		serve.WithShardOptions(shardOpts...),
	}
	if cfg.Quota > 0 {
		opts = append(opts, serve.WithTenantQuota(cfg.Quota))
	}
	if cfg.TargetP95 > 0 {
		opts = append(opts, serve.WithAIMD(serve.AIMDConfig{TargetP95: cfg.TargetP95}))
	}
	return serve.NewRouter(srv, mode, opts...)
}

// ClusterReport is the JSON artifact of a cluster experiment run: the
// calibrated 1× capacity and every (load, chaos) cell.
type ClusterReport struct {
	Server   string
	Capacity float64 // calibrated 1× service rate, req/s
	SLOms    float64
	Cells    []ClusterResult
}

// JSON renders the report with stable formatting for CI artifacts.
func (r *ClusterReport) JSON() ([]byte, error) {
	return json.MarshalIndent(r, "", "  ")
}

// FormatCluster renders the goodput-under-overload table.
func FormatCluster(rep *ClusterReport) string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "Calibrated 1x capacity: %.0f req/s (SLO %.0fms)\n", rep.Capacity, rep.SLOms)
	fmt.Fprintf(&sb, "%-18s %-6s %-6s %-9s %-9s %-9s %-9s %-9s %-7s %-7s %-7s %-7s %s\n",
		"Version", "Load", "Chaos", "Clients", "Goodput", "p50", "p95", "p99",
		"Shed", "Reject", "OverQ", "OverL", "Rebal")
	for _, c := range rep.Cells {
		chaos := "off"
		if c.Chaos {
			chaos = "on"
		}
		fmt.Fprintf(&sb, "%-18s %-6s %-6s %-9d %-9.0f %-9s %-9s %-9s %-7d %-7d %-7d %-7d %d\n",
			c.Mode, fmt.Sprintf("%.0fx", c.Load), chaos, c.Clients, c.Goodput,
			fmtLatency(c.P50), fmtLatency(c.P95), fmtLatency(c.P99),
			c.Shed, c.Rejected, c.OverQuota, c.OverLimit, c.Rebalanced)
	}
	return sb.String()
}
