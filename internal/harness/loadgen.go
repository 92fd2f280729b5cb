package harness

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"sort"
	"strings"
	"sync"
	"time"

	"focc/fo"
	"focc/internal/serve"
	"focc/internal/servers"
)

// LoadtestConfig parameterizes the concurrent throughput-under-attack
// experiment (the §4.3.2 methodology under genuine concurrent load: the
// paper used several machines to flood the server with attack requests
// while one client fetched the home page).
type LoadtestConfig struct {
	// Clients is the number of concurrent closed-loop client goroutines;
	// 0 means 8.
	Clients int
	// PoolSize is the engine's worker-instance count; 0 means 4.
	PoolSize int
	// QueueDepth bounds the admission queue; 0 means 2×Clients.
	QueueDepth int
	// Deadline is the per-request deadline; 0 disables it.
	Deadline time.Duration
	// AttacksPerLegit is the attack mix: each client sends this many
	// attack requests before every measured legitimate request.
	AttacksPerLegit int
	// LegitPerClient is the number of legitimate requests each client
	// completes; 0 means 10.
	LegitPerClient int
	// Seed drives the per-client PRNGs that pick which legitimate request
	// each client issues next, so the workload mix is reproducible: the
	// same seed yields the same request sequence per client. 0 means 1.
	Seed int64
}

func (c *LoadtestConfig) defaults() {
	if c.Clients <= 0 {
		c.Clients = 8
	}
	if c.PoolSize <= 0 {
		c.PoolSize = 4
	}
	if c.QueueDepth <= 0 {
		c.QueueDepth = 2 * c.Clients
	}
	if c.LegitPerClient <= 0 {
		c.LegitPerClient = 10
	}
	if c.AttacksPerLegit < 0 {
		c.AttacksPerLegit = 0
	}
	if c.Seed == 0 {
		c.Seed = 1
	}
}

// LoadtestResult is one per-mode row of the concurrent throughput table.
type LoadtestResult struct {
	Mode       fo.Mode
	LegitDone  int // legitimate requests answered by a live instance
	LegitLost  int // legitimate requests crashed or timed out
	Attacks    int // attack requests admitted
	Elapsed    time.Duration
	Throughput float64 // legitimate requests per wall-clock second

	// Latency percentiles over the legitimate requests.
	P50, P95, P99 time.Duration

	// Engine counters at the end of the run.
	Restarts     uint64
	Timeouts     uint64
	Rejected     uint64
	BreakerTrips uint64
}

// Loadtest runs cfg.Clients concurrent closed-loop clients against a
// serve.Engine pool of srv instances under mode: each client interleaves
// cfg.AttacksPerLegit attack requests with one measured legitimate request,
// until it has completed cfg.LegitPerClient legitimate requests. It reports
// wall-clock legitimate throughput and latency percentiles.
func Loadtest(srv servers.Server, mode fo.Mode, cfg LoadtestConfig) (LoadtestResult, error) {
	cfg.defaults()
	opts := []serve.Option{
		serve.WithPoolSize(cfg.PoolSize),
		serve.WithQueueDepth(cfg.QueueDepth),
	}
	if cfg.Deadline > 0 {
		opts = append(opts, serve.WithDeadline(cfg.Deadline))
	}
	eng, err := serve.New(srv, mode, opts...)
	if err != nil {
		return LoadtestResult{}, err
	}
	defer eng.Close()

	legits := srv.LegitRequests()
	attack := srv.AttackRequest()
	res := LoadtestResult{Mode: mode}

	var (
		mu        sync.Mutex
		latencies []time.Duration
		firstErr  error
	)
	record := func(done, lost, attacks int, lats []time.Duration, err error) {
		mu.Lock()
		defer mu.Unlock()
		res.LegitDone += done
		res.LegitLost += lost
		res.Attacks += attacks
		latencies = append(latencies, lats...)
		if err != nil && firstErr == nil {
			firstErr = err
		}
	}

	var wg sync.WaitGroup
	start := time.Now()
	for c := 0; c < cfg.Clients; c++ {
		wg.Add(1)
		// Each client's request mix is drawn up front from a PRNG seeded
		// by (Seed, client index), so it is identical across runs with the
		// same seed regardless of scheduling or queue-full retries.
		rng := rand.New(rand.NewSource(cfg.Seed + int64(c)*1_000_003))
		picks := make([]int, cfg.LegitPerClient)
		for i := range picks {
			picks[i] = rng.Intn(len(legits))
		}
		go func() {
			defer wg.Done()
			var done, lost, attacks int
			lats := make([]time.Duration, 0, cfg.LegitPerClient)
			for i := 0; i < cfg.LegitPerClient; i++ {
				legit := legits[picks[i]]
				for a := 0; a < cfg.AttacksPerLegit; a++ {
					_, err := eng.Submit(context.Background(), attack)
					switch {
					case err == nil:
						attacks++
					case errors.Is(err, serve.ErrQueueFull):
						// Backpressure did its job; the attacker's
						// request is simply dropped.
					default:
						record(done, lost, attacks, lats, err)
						return
					}
				}
				t0 := time.Now()
				resp, err := eng.Submit(context.Background(), legit)
				switch {
				case errors.Is(err, serve.ErrQueueFull):
					// Closed-loop client: back off briefly and retry the
					// same request.
					i--
					time.Sleep(50 * time.Microsecond)
					continue
				case err != nil:
					record(done, lost, attacks, lats, err)
					return
				}
				if resp.OK() {
					done++
					lats = append(lats, time.Since(t0))
				} else {
					lost++
				}
			}
			record(done, lost, attacks, lats, nil)
		}()
	}
	wg.Wait()
	res.Elapsed = time.Since(start)
	if firstErr != nil {
		return res, firstErr
	}
	if res.Elapsed > 0 {
		res.Throughput = float64(res.LegitDone) / res.Elapsed.Seconds()
	}
	res.P50, res.P95, res.P99 = percentiles(latencies)
	eng.Close() // joins the workers, so a respawn still backing off is settled
	st := eng.Stats()
	res.Restarts = st.Restarts
	res.Timeouts = st.Timeouts
	res.Rejected = st.Rejected
	res.BreakerTrips = st.BreakerTrips
	return res, nil
}

// percentiles returns the p50/p95/p99 of lats (nearest-rank: the value at
// 1-based rank ⌈p·n⌉, which rounds fractional ranks up — rounding half-up
// instead would bias tails low, e.g. select rank 149 of 151 at p99).
func percentiles(lats []time.Duration) (p50, p95, p99 time.Duration) {
	if len(lats) == 0 {
		return 0, 0, 0
	}
	sorted := append([]time.Duration(nil), lats...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
	rank := func(p float64) time.Duration {
		// The epsilon absorbs float error on exact products (0.95×100
		// computes as just above 95) without reaching the next genuine
		// fractional rank.
		i := int(math.Ceil(p*float64(len(sorted))-1e-9)) - 1
		if i < 0 {
			i = 0
		}
		if i >= len(sorted) {
			i = len(sorted) - 1
		}
		return sorted[i]
	}
	return rank(0.50), rank(0.95), rank(0.99)
}

// FormatLoadtest renders the concurrent §4.3.2 table with ratios relative
// to the FailureOblivious row.
func FormatLoadtest(rows []LoadtestResult) string {
	var foThroughput float64
	for _, r := range rows {
		if r.Mode == fo.FailureOblivious {
			foThroughput = r.Throughput
		}
	}
	var sb strings.Builder
	fmt.Fprintf(&sb, "%-18s %-12s %-9s %-9s %-9s %-9s %-9s %-6s %s\n",
		"Version", "Legit req/s", "p50", "p95", "p99", "Restarts", "Timeouts", "Trips", "FO speedup")
	for _, r := range rows {
		ratio := "1.0"
		if r.Throughput > 0 && foThroughput > 0 && r.Mode != fo.FailureOblivious {
			ratio = fmt.Sprintf("%.1f", foThroughput/r.Throughput)
		}
		fmt.Fprintf(&sb, "%-18s %-12.1f %-9s %-9s %-9s %-9d %-9d %-6d %s\n",
			r.Mode, r.Throughput,
			fmtLatency(r.P50), fmtLatency(r.P95), fmtLatency(r.P99),
			r.Restarts, r.Timeouts, r.BreakerTrips, ratio)
	}
	return sb.String()
}

func fmtLatency(d time.Duration) string {
	return d.Round(10 * time.Microsecond).String()
}
