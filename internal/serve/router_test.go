package serve_test

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"focc/fo"
	"focc/internal/serve"
	"focc/internal/servers"
)

// stubSrcV2 is the "next release" of stubSrc for hot-swap tests: same
// handlers, but ok answers 201 so responses reveal which program served
// them.
const stubSrcV2 = `
char resp[32];

int ok(void)
{
	resp[0] = 'v'; resp[1] = '2'; resp[2] = 0;
	return 201;
}
`

var (
	stubV2Once sync.Once
	stubV2Prog *fo.Program
	stubV2Err  error
)

type stubServerV2 struct{}

func (*stubServerV2) Name() string { return "stub-v2" }

func (*stubServerV2) New(mode fo.Mode) (servers.Instance, error) {
	stubV2Once.Do(func() { stubV2Prog, stubV2Err = fo.Compile("stub_v2.c", stubSrcV2) })
	if stubV2Err != nil {
		return nil, stubV2Err
	}
	log := fo.NewEventLog(0)
	m, err := stubV2Prog.NewMachine(fo.MachineConfig{Mode: mode, Log: log})
	if err != nil {
		return nil, err
	}
	return &stubInstance{Base: servers.Base{ServerName: "stub-v2", M: m, EvLog: log}}, nil
}

func (*stubServerV2) LegitRequests() []servers.Request {
	return []servers.Request{{Op: "ok"}}
}

func (*stubServerV2) AttackRequest() servers.Request {
	return servers.Request{Op: "ok"}
}

// TestRouterShardingStability: tenant→shard assignment is deterministic,
// spreads tenants across every shard, and requests actually land on the
// shard the ring names (per-shard Served counters line up).
func TestRouterShardingStability(t *testing.T) {
	rt, err := serve.NewRouter(&stubServer{}, fo.FailureOblivious,
		serve.WithShards(4),
		serve.WithShardOptions(serve.WithPoolSize(1), serve.WithQueueDepth(8)))
	if err != nil {
		t.Fatal(err)
	}
	defer rt.Close()

	perShard := make([]int, rt.ShardCount())
	for i := 0; i < 1000; i++ {
		tenant := fmt.Sprintf("tenant-%d", i)
		s := rt.Shard(tenant)
		if again := rt.Shard(tenant); again != s {
			t.Fatalf("Shard(%q) unstable: %d then %d", tenant, s, again)
		}
		perShard[s]++
	}
	for s, n := range perShard {
		if n == 0 {
			t.Errorf("shard %d received no tenants out of 1000", s)
		}
	}

	// Route a handful of real requests and check the per-shard counters
	// match the ring's assignment.
	want := make([]uint64, rt.ShardCount())
	for i := 0; i < 20; i++ {
		tenant := fmt.Sprintf("tenant-%d", i)
		want[rt.Shard(tenant)]++
		resp, err := rt.Submit(context.Background(), tenant, servers.Request{Op: "ok"})
		if err != nil {
			t.Fatalf("submit tenant-%d: %v", i, err)
		}
		if !resp.OK() {
			t.Fatalf("tenant-%d response = %v, want OK", i, resp)
		}
	}
	st := rt.Stats()
	if st.Served != 20 {
		t.Fatalf("aggregate Served = %d, want 20", st.Served)
	}
	for s := range want {
		if st.Shards[s].Served != want[s] {
			t.Errorf("shard %d served %d, want %d", s, st.Shards[s].Served, want[s])
		}
	}
}

// TestRouterTenantQuotaNoStarvation: a flooding tenant saturating its quota
// at well over 2× the fleet's capacity must not starve a light tenant —
// every one of the light tenant's requests is admitted and served, while
// the flooder takes ErrOverQuota rejections.
func TestRouterTenantQuotaNoStarvation(t *testing.T) {
	rt, err := serve.NewRouter(&stubServer{}, fo.FailureOblivious,
		serve.WithShards(2),
		serve.WithTenantQuota(2),
		serve.WithShardOptions(serve.WithPoolSize(1), serve.WithQueueDepth(16)))
	if err != nil {
		t.Fatal(err)
	}
	defer rt.Close()

	stop := make(chan struct{})
	var flood sync.WaitGroup
	for g := 0; g < 8; g++ { // 8 concurrent floods against a quota of 2
		flood.Add(1)
		go func() {
			defer flood.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				// Slow requests hold the flooder's quota slots so the
				// other flood goroutines pile up over quota; denied
				// goroutines back off briefly instead of spinning the
				// scheduler.
				ctx, cancel := context.WithTimeout(context.Background(), 30*time.Millisecond)
				_, err := rt.Submit(ctx, "flooder", servers.Request{Op: "spin"})
				cancel()
				if errors.Is(err, serve.ErrOverQuota) {
					time.Sleep(time.Millisecond)
				}
			}
		}()
	}

	time.Sleep(30 * time.Millisecond) // let the flood saturate its quota
	for i := 0; i < 10; i++ {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		resp, err := rt.Submit(ctx, "light", servers.Request{Op: "ok"})
		cancel()
		if err != nil {
			t.Fatalf("light tenant request %d starved: %v", i, err)
		}
		if !resp.OK() {
			t.Fatalf("light tenant request %d = %v, want OK", i, resp)
		}
	}
	close(stop)
	flood.Wait()

	st := rt.Stats()
	if st.OverQuota == 0 {
		t.Error("flooding tenant was never rejected over quota")
	}
	ten := st.Tenants
	if ten["flooder"].Denied == 0 {
		t.Errorf("flooder Denied = 0, want > 0 (stats: %+v)", ten["flooder"])
	}
	if ten["light"].Denied != 0 {
		t.Errorf("light tenant Denied = %d, want 0", ten["light"].Denied)
	}
	if ten["light"].Admitted != 10 {
		t.Errorf("light tenant Admitted = %d, want 10", ten["light"].Admitted)
	}
}

// TestRouterHotSwapZeroFailures is the zero-downtime guarantee: under
// sustained concurrent load, Swap replaces the served program with ZERO
// failed requests — every submission before, during, and after the flip is
// answered OK, old-program responses simply give way to new-program ones.
func TestRouterHotSwapZeroFailures(t *testing.T) {
	rt, err := serve.NewRouter(&stubServer{}, fo.FailureOblivious,
		serve.WithShards(2),
		serve.WithShardOptions(
			serve.WithPoolSize(2), serve.WithQueueDepth(64), serve.WithWarmSpares(1)))
	if err != nil {
		t.Fatal(err)
	}
	defer rt.Close()

	const clients = 8
	var v1, v2, failures atomic.Uint64
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			tenant := fmt.Sprintf("tenant-%d", c)
			for {
				select {
				case <-stop:
					return
				default:
				}
				resp, err := rt.Submit(context.Background(), tenant, servers.Request{Op: "ok"})
				if err != nil || !resp.OK() {
					failures.Add(1)
					continue
				}
				switch resp.Status {
				case 200:
					v1.Add(1)
				case 201:
					v2.Add(1)
				default:
					failures.Add(1)
				}
			}
		}(c)
	}

	time.Sleep(100 * time.Millisecond) // steady state on v1
	prev := rt.Swap(&stubServerV2{})
	if _, ok := prev.(*stubServer); !ok {
		t.Errorf("Swap returned %T, want the previous *stubServer", prev)
	}
	time.Sleep(100 * time.Millisecond) // steady state on v2
	close(stop)
	wg.Wait()

	if n := failures.Load(); n != 0 {
		t.Fatalf("%d requests failed across the hot swap, want 0", n)
	}
	if v1.Load() == 0 || v2.Load() == 0 {
		t.Fatalf("load did not span the swap: v1=%d v2=%d", v1.Load(), v2.Load())
	}

	// Everything submitted after the swap runs the new program.
	resp, err := rt.Submit(context.Background(), "post-swap", servers.Request{Op: "ok"})
	if err != nil || resp.Status != 201 {
		t.Fatalf("post-swap request = %v, %v; want 201 from the new program", resp, err)
	}
	if cur, ok := rt.Current().(*stubServerV2); !ok {
		t.Errorf("Current() = %T, want *stubServerV2", cur)
	}

	st := rt.Stats()
	if st.Swaps != 1 {
		t.Errorf("Swaps = %d, want 1", st.Swaps)
	}
	if st.Recycles == 0 {
		t.Error("no instance recycles recorded after a swap under load")
	}
	if st.Crashes != 0 || st.Restarts != 0 {
		t.Errorf("hot swap crashed instances: crashes=%d restarts=%d", st.Crashes, st.Restarts)
	}
	if st.Rejected != 0 || st.Shed != 0 {
		t.Errorf("hot swap dropped requests: rejected=%d shed=%d", st.Rejected, st.Shed)
	}
}

// TestRouterAIMDBacksOffUnderLatency: sustained latency far above the p95
// target must walk the adaptive concurrency limit down and start rejecting
// with ErrOverLimit — upstream backpressure driven by observed latency.
func TestRouterAIMDBacksOffUnderLatency(t *testing.T) {
	rt, err := serve.NewRouter(&stubServer{}, fo.FailureOblivious,
		serve.WithShards(1),
		serve.WithAIMD(serve.AIMDConfig{
			TargetP95: time.Millisecond,
			Window:    4,
		}),
		serve.WithShardOptions(serve.WithPoolSize(2), serve.WithQueueDepth(32)))
	if err != nil {
		t.Fatal(err)
	}
	defer rt.Close()

	start := rt.Stats().Limit // 2× total workers
	deadline := time.Now().Add(2 * time.Second)
	var wg sync.WaitGroup
	for c := 0; c < 8; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			tenant := fmt.Sprintf("tenant-%d", c)
			for time.Now().Before(deadline) {
				ctx, cancel := context.WithTimeout(context.Background(), 15*time.Millisecond)
				_, err := rt.Submit(ctx, tenant, servers.Request{Op: "spin"})
				cancel()
				if errors.Is(err, serve.ErrOverLimit) {
					time.Sleep(time.Millisecond)
				}
				if rt.Stats().Limit < start && rt.Stats().OverLimit > 0 {
					return
				}
			}
		}(c)
	}
	wg.Wait()

	st := rt.Stats()
	if st.Limit >= start {
		t.Errorf("adaptive limit = %d, want < initial %d after sustained over-target latency",
			st.Limit, start)
	}
	if st.OverLimit == 0 {
		t.Error("no ErrOverLimit rejections while saturated over target")
	}
}

// TestRouterShardWeightValidation: WithShardWeights is validated at
// construction — weights outside [1, 64], a length mismatch with
// WithShards — and without WithShards the shard count is inferred from
// the weight list.
func TestRouterShardWeightValidation(t *testing.T) {
	cases := []struct {
		name string
		opts []serve.RouterOption
	}{
		{"zero weight", []serve.RouterOption{serve.WithShardWeights(1, 0, 2)}},
		{"negative weight", []serve.RouterOption{serve.WithShardWeights(-3)}},
		{"over max weight", []serve.RouterOption{serve.WithShardWeights(1, 65)}},
		{"count mismatch", []serve.RouterOption{serve.WithShards(2), serve.WithShardWeights(1, 2, 3)}},
	}
	for _, c := range cases {
		if rt, err := serve.NewRouter(&stubServer{}, fo.FailureOblivious, c.opts...); err == nil {
			rt.Close()
			t.Errorf("%s: NewRouter accepted invalid weights", c.name)
		}
	}

	rt, err := serve.NewRouter(&stubServer{}, fo.FailureOblivious,
		serve.WithShardWeights(1, 2, 3))
	if err != nil {
		t.Fatalf("weights without WithShards: %v", err)
	}
	defer rt.Close()
	if rt.ShardCount() != 3 {
		t.Errorf("ShardCount() = %d, want 3 inferred from len(weights)", rt.ShardCount())
	}
}

// TestRouterRebalanceOnBreaker: when a shard's circuit breaker trips, its
// tenants' requests reroute to healthy shards (zero failures, Rebalanced
// counts them, the tripped shard serves nothing new), and when the breaker
// restores after cooldown the tenants return home and rebalancing stops.
func TestRouterRebalanceOnBreaker(t *testing.T) {
	rt, err := serve.NewRouter(&stubServer{}, fo.Standard,
		serve.WithShards(3),
		serve.WithShardOptions(
			serve.WithPoolSize(1), serve.WithQueueDepth(16),
			serve.WithBackoff(time.Millisecond, 2*time.Millisecond),
			serve.WithBreaker(2, 750*time.Millisecond)))
	if err != nil {
		t.Fatal(err)
	}
	defer rt.Close()

	tenant := "tenant-rebalance"
	home := rt.Shard(tenant)

	// Trip the home shard's breaker: two consecutive crashes with no
	// intervening success.
	for i := 0; i < 2; i++ {
		resp, err := rt.Submit(nil, tenant, servers.Request{Op: "smash"})
		if err != nil {
			t.Fatalf("smash %d: %v", i, err)
		}
		if !resp.Crashed() {
			t.Fatalf("smash %d outcome = %v, want a crash", i, resp.Outcome)
		}
	}
	// The breaker trips before the reply to the second crash is sent, and
	// the trip counter is incremented after the health gauge (see
	// respawn), so from here every lookup sees the home shard as
	// unhealthy.
	tripped := rt.Stats()
	if tripped.Shards[home].BreakerTrips == 0 {
		t.Fatal("home shard breaker had not tripped when the second crash was answered")
	}
	homeServed := tripped.Shards[home].Served

	// Handoff: with the breaker open, the tenant's requests must land on
	// healthy shards — no failures, no new work on the tripped shard.
	const loadN = 20
	for i := 0; i < loadN; i++ {
		resp, err := rt.Submit(nil, tenant, servers.Request{Op: "ok"})
		if err != nil {
			t.Fatalf("rebalanced ok %d: %v", i, err)
		}
		if resp.Outcome != fo.OutcomeOK {
			t.Fatalf("rebalanced ok %d outcome = %v, want OK", i, resp.Outcome)
		}
	}
	st := rt.Stats()
	if st.Rebalanced < loadN {
		t.Errorf("Rebalanced = %d, want at least %d rerouted requests", st.Rebalanced, loadN)
	}
	if got := st.Shards[home].Served; got != homeServed {
		t.Errorf("tripped shard served %d new requests, want 0 (had %d)", got-homeServed, homeServed)
	}

	// Restoration: the half-open respawn at cooldown end clears the gauge;
	// once a request lands home again, rebalancing must have stopped.
	deadline := time.Now().Add(5 * time.Second)
	for rt.Stats().Shards[home].Served == homeServed {
		if time.Now().After(deadline) {
			t.Fatal("home shard never recovered after breaker cooldown")
		}
		resp, err := rt.Submit(nil, tenant, servers.Request{Op: "ok"})
		if err != nil {
			t.Fatalf("recovery probe: %v", err)
		}
		if resp.Outcome != fo.OutcomeOK {
			t.Fatalf("recovery probe outcome = %v, want OK", resp.Outcome)
		}
		time.Sleep(5 * time.Millisecond)
	}
	restored := rt.Stats()
	const afterN = 5
	for i := 0; i < afterN; i++ {
		resp, err := rt.Submit(nil, tenant, servers.Request{Op: "ok"})
		if err != nil {
			t.Fatalf("restored ok %d: %v", i, err)
		}
		if resp.Outcome != fo.OutcomeOK {
			t.Fatalf("restored ok %d outcome = %v, want OK", i, resp.Outcome)
		}
	}
	final := rt.Stats()
	if got := final.Shards[home].Served - restored.Shards[home].Served; got != afterN {
		t.Errorf("restored home shard served %d of %d post-recovery requests", got, afterN)
	}
	if final.Rebalanced != restored.Rebalanced {
		t.Errorf("Rebalanced grew %d→%d after restoration — tenants did not return home",
			restored.Rebalanced, final.Rebalanced)
	}
}

// TestRouterStatsUnderScrapeSwapRebalance hammers one router from four
// directions at once — stats/metrics scrapers, a program hot-swapper, a
// crash-loop tenant that keeps tripping breakers (rebalance churn), and
// legitimate clients — and requires zero unexpected failures. Its job is
// race coverage of the scrape/swap/rebalance planes (run under -race);
// rebalancing behavior itself is pinned by TestRouterRebalanceOnBreaker.
func TestRouterStatsUnderScrapeSwapRebalance(t *testing.T) {
	rt, err := serve.NewRouter(&stubServer{}, fo.Standard,
		serve.WithShards(3),
		serve.WithShardOptions(
			serve.WithPoolSize(1), serve.WithQueueDepth(32),
			serve.WithBackoff(time.Millisecond, 2*time.Millisecond),
			serve.WithBreaker(2, 20*time.Millisecond)))
	if err != nil {
		t.Fatal(err)
	}
	defer rt.Close()

	stop := make(chan struct{})
	var wg sync.WaitGroup

	for s := 0; s < 2; s++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				st := rt.Stats()
				_ = st.Rebalanced
				for _, sh := range st.Shards {
					_ = sh.MemErrors.Total()
				}
				_ = rt.Metrics().Latency.P99
			}
		}()
	}

	wg.Add(1)
	go func() {
		defer wg.Done()
		next := []servers.Server{&stubServerV2{}, &stubServer{}}
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			rt.Swap(next[i%2])
			time.Sleep(time.Millisecond)
		}
	}()

	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			// Crash loop on one tenant: trips its home shard's breaker,
			// then chases the rebalanced route and trips that shard too —
			// constant health churn under the scrapers and swapper.
			if _, err := rt.Submit(nil, "tenant-chaos", servers.Request{Op: "smash"}); err != nil &&
				!errors.Is(err, serve.ErrQueueFull) && !errors.Is(err, serve.ErrShed) {
				t.Errorf("chaos smash: %v", err)
				return
			}
		}
	}()

	var okServed atomic.Uint64
	for c := 0; c < 3; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			tenant := fmt.Sprintf("tenant-%d", c)
			for {
				select {
				case <-stop:
					return
				default:
				}
				resp, err := rt.Submit(nil, tenant, servers.Request{Op: "ok"})
				switch {
				case errors.Is(err, serve.ErrQueueFull), errors.Is(err, serve.ErrShed):
					time.Sleep(100 * time.Microsecond)
				case err != nil:
					t.Errorf("client %d: %v", c, err)
					return
				case resp.Outcome == fo.OutcomeOK:
					okServed.Add(1)
				default:
					t.Errorf("client %d outcome = %v, want OK", c, resp.Outcome)
					return
				}
			}
		}(c)
	}

	time.Sleep(300 * time.Millisecond)
	close(stop)
	wg.Wait()

	st := rt.Stats()
	if okServed.Load() == 0 {
		t.Error("no legitimate request succeeded under churn")
	}
	if st.Swaps == 0 {
		t.Error("no hot-swap completed under churn")
	}
	if st.Shards[0].Served+st.Shards[1].Served+st.Shards[2].Served == 0 {
		t.Error("shard stats report nothing served")
	}
}
