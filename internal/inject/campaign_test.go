package inject

import (
	"bytes"
	"testing"
	"time"

	"focc/fo"
	"focc/internal/serve"
)

// campaignPlan is the shared small-but-real test plan: two servers, all
// fault classes, a two-strategy sweep, and a chaos section without
// deadlines (kill/delay counters are counter-keyed and deterministic; a
// deadline would make classification depend on wall-clock speed).
func campaignPlan() Plan {
	return Plan{
		Seed:       7,
		Faults:     12,
		Servers:    []string{"pine", "sendmail"},
		Strategies: []Strategy{StratSmallInt, StratZero},
		Chaos: &ChaosPlan{
			Requests:     12,
			KillEvery:    4,
			LatencyEvery: 5,
			Latency:      time.Millisecond,
		},
	}
}

// Two runs of the same (seed, plan) must produce byte-identical JSON
// reports — the campaign's determinism contract (acceptance criterion).
func TestCampaignDeterminism(t *testing.T) {
	plan := campaignPlan()
	r1, err := Run(plan, AllTargets())
	if err != nil {
		t.Fatalf("run 1: %v", err)
	}
	r2, err := Run(plan, AllTargets())
	if err != nil {
		t.Fatalf("run 2: %v", err)
	}
	j1, err := r1.JSON()
	if err != nil {
		t.Fatalf("marshal 1: %v", err)
	}
	j2, err := r2.JSON()
	if err != nil {
		t.Fatalf("marshal 2: %v", err)
	}
	if !bytes.Equal(j1, j2) {
		t.Fatalf("same seed+plan produced different reports:\n--- run 1 ---\n%s\n--- run 2 ---\n%s", j1, j2)
	}
	// A different seed must actually change the sampled points (guards
	// against the PRNG being ignored).
	plan.Seed = 8
	r3, err := Run(plan, AllTargets())
	if err != nil {
		t.Fatalf("run 3: %v", err)
	}
	j3, err := r3.JSON()
	if err != nil {
		t.Fatalf("marshal 3: %v", err)
	}
	if bytes.Equal(j1, j3) {
		t.Fatal("different seeds produced identical reports")
	}
}

// The campaign must reproduce the paper's ordering: FailureOblivious
// survival strictly highest on every server, Standard showing
// corrupted-output outcomes, BoundsCheck showing terminations.
func TestCampaignPaperOrdering(t *testing.T) {
	plan := Plan{
		Seed:       1,
		Faults:     25,
		Servers:    []string{"pine", "apache"},
		Strategies: []Strategy{}, // skip the sweep; ordering is about the main cells
	}
	rep, err := Run(plan, AllTargets())
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	t.Logf("\n%s", FormatReport(rep))
	stdCorrupted, bcTerminated := 0, 0
	for _, s := range rep.Servers {
		rates := map[string]float64{}
		for _, c := range s.Cells {
			rates[c.Mode] = c.SurvivalRate
			switch c.Mode {
			case "standard":
				stdCorrupted += c.Corrupted
			case "bounds-check":
				bcTerminated += c.Terminated
			}
		}
		foRate := rates["failure-oblivious"]
		if !(foRate > rates["standard"] && foRate > rates["bounds-check"]) {
			t.Errorf("%s: failure-oblivious survival %.2f not strictly highest (standard %.2f, bounds-check %.2f)",
				s.Server, foRate, rates["standard"], rates["bounds-check"])
		}
	}
	if stdCorrupted == 0 {
		t.Error("standard mode showed no corrupted-output outcomes")
	}
	if bcTerminated == 0 {
		t.Error("bounds-check mode showed no terminations")
	}
}

// The rewind cell's contract: survival matches failure-oblivious (every
// detected memory error is survived, by rollback instead of manufactured
// values), nothing terminates, and — the property failure-oblivious cannot
// offer — zero corrupted outputs from detected memory errors. The only
// corrupted classifications allowed under rewind are fault classes that
// never trip the detector (pre-request corrupt-byte state corruption and
// gracefully handled alloc-oom), identified by a zero memory-error count on
// the point.
func TestCampaignRewindIntegrity(t *testing.T) {
	plan := Plan{
		Seed:       1,
		Faults:     25,
		Servers:    []string{"pine", "apache"},
		Strategies: []Strategy{},
	}
	rep, err := Run(plan, AllTargets())
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	for _, s := range rep.Servers {
		cells := map[string]Cell{}
		for _, c := range s.Cells {
			cells[c.Mode] = c
		}
		rw, fob := cells["rewind"], cells["failure-oblivious"]
		if rw.Mode == "" || fob.Mode == "" {
			t.Fatalf("%s: missing rewind or failure-oblivious cell", s.Server)
		}
		if rw.SurvivalRate < fob.SurvivalRate {
			t.Errorf("%s: rewind survival %.2f below failure-oblivious %.2f",
				s.Server, rw.SurvivalRate, fob.SurvivalRate)
		}
		if rw.Terminated != 0 {
			t.Errorf("%s: rewind terminated %d points, want 0", s.Server, rw.Terminated)
		}
		if rw.Rewound == 0 {
			t.Errorf("%s: rewind cell rolled back no points — policy not exercised", s.Server)
		}
		for i, r := range rw.Results {
			if r.Outcome == OutcomeCorrupted && r.MemErrors != 0 {
				t.Errorf("%s point %d (%s): corrupted output despite %d detected memory errors — rollback leaked state",
					s.Server, i, s.Points[i].Class, r.MemErrors)
			}
			if r.Outcome == OutcomeRewound && r.MemErrors == 0 {
				t.Errorf("%s point %d (%s): rewound without a detected memory error",
					s.Server, i, s.Points[i].Class)
			}
		}
	}
}

// The chaos section's counters are fully determined by the plan: a
// single-worker engine fed sequentially kills on every KillEvery-th and
// delays on every LatencyEvery-th request.
func TestCampaignChaosCounters(t *testing.T) {
	plan := campaignPlan()
	rep, err := Run(plan, AllTargets())
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	if rep.ChaosServer != "pine" {
		t.Fatalf("chaos server = %q, want pine", rep.ChaosServer)
	}
	if len(rep.Chaos) != 4 {
		t.Fatalf("chaos cells = %d, want one per campaign mode (4)", len(rep.Chaos))
	}
	cp := plan.Chaos
	wantKills := cp.Requests / int(cp.KillEvery)
	wantDelays := cp.Requests / int(cp.LatencyEvery)
	for _, c := range rep.Chaos {
		if c.Kills != wantKills {
			t.Errorf("%s: kills = %d, want %d", c.Mode, c.Kills, wantKills)
		}
		if c.Delays != wantDelays {
			t.Errorf("%s: delays = %d, want %d", c.Mode, c.Delays, wantDelays)
		}
		// Legit requests never crash organically, so every restart is a
		// chaos kill; with no deadline every request completes OK.
		if c.Restarts != wantKills {
			t.Errorf("%s: restarts = %d, want %d", c.Mode, c.Restarts, wantKills)
		}
		if c.OK != cp.Requests {
			t.Errorf("%s: ok = %d, want %d", c.Mode, c.OK, cp.Requests)
		}
		if c.Deadlines != 0 {
			t.Errorf("%s: deadlines = %d, want 0", c.Mode, c.Deadlines)
		}
	}
}

// Point sampling respects the class-specific headroom invariants: every
// oob ordinal and malloc ordinal lies inside the profiled request window.
func TestSampledPointsWithinProfile(t *testing.T) {
	plan := campaignPlan()
	rep, err := Run(plan, AllTargets())
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	for _, s := range rep.Servers {
		if len(s.Points) != plan.Faults {
			t.Errorf("%s: %d points, want %d", s.Server, len(s.Points), plan.Faults)
		}
		for i, p := range s.Points {
			switch p.Class {
			case OOBRead, OOBWrite:
				if p.At == 0 || p.Shape == "" {
					t.Errorf("%s point %d: unparameterized oob spec %+v", s.Server, i, p)
				}
			case AllocFault:
				if p.MallocN == 0 {
					t.Errorf("%s point %d: alloc fault with MallocN=0", s.Server, i)
				}
			case CorruptByte:
				if p.Mask == 0 {
					t.Errorf("%s point %d: corrupt-byte with zero mask", s.Server, i)
				}
			default:
				t.Errorf("%s point %d: unknown class %q", s.Server, i, p.Class)
			}
		}
		for _, c := range s.Cells {
			if len(c.Results) != len(s.Points) {
				t.Errorf("%s/%s: %d results for %d points", s.Server, c.Mode, len(c.Results), len(s.Points))
			}
		}
	}
}

// TestCampaignRebalanceSurvival drives the campaign's attack workload
// through a sharded router with a tight restart breaker: under the
// crashing modes the attacked tenant's home shard trips and the router
// reroutes its traffic (Rebalanced > 0, zero submit failures), while
// failure-oblivious absorbs the attacks without ever tripping a shard —
// so the paper's survival ordering (failure-oblivious strictly highest)
// holds even while shards are tripped out of the ring.
func TestCampaignRebalanceSurvival(t *testing.T) {
	target := AllTargets()[1] // apache, the throughput chapter's server
	if target.Name != "apache" {
		t.Fatalf("target order changed: got %q, want apache second", target.Name)
	}
	const legitN = 30
	survival := map[string]float64{}
	for _, mode := range []fo.Mode{fo.Standard, fo.BoundsCheck, fo.FailureOblivious} {
		srv := target.New()
		rt, err := serve.NewRouter(srv, mode,
			serve.WithShards(3),
			serve.WithShardOptions(
				serve.WithPoolSize(1), serve.WithQueueDepth(64),
				serve.WithBackoff(time.Millisecond, 2*time.Millisecond),
				serve.WithBreaker(2, 2*time.Second)))
		if err != nil {
			t.Fatalf("%v: %v", mode, err)
		}
		tenant := "tenant-attacked"
		home := rt.Shard(tenant)
		attack := srv.AttackRequest()
		legit := srv.LegitRequests()

		survived, total := 0, 0
		for i := 0; i < 2; i++ { // back-to-back: consecutive crashes trip the breaker
			resp, err := rt.Submit(nil, tenant, attack)
			if err != nil {
				t.Fatalf("%v attack %d: %v", mode, i, err)
			}
			total++
			if !resp.Crashed() {
				survived++
			}
		}
		crashing := mode != fo.FailureOblivious
		// The breaker trips before the reply to the tripping crash is sent.
		if crashing && rt.Stats().Shards[home].BreakerTrips == 0 {
			t.Fatalf("%v: attacked shard had not tripped when the second attack was answered", mode)
		}
		for i := 0; i < legitN; i++ {
			resp, err := rt.Submit(nil, tenant, legit[i%len(legit)])
			if err != nil {
				t.Fatalf("%v legit %d: %v — availability lost during trip", mode, i, err)
			}
			total++
			if !resp.Crashed() {
				survived++
			}
		}
		st := rt.Stats()
		rt.Close()
		if crashing && st.Rebalanced == 0 {
			t.Errorf("%v: breaker tripped but no request was rebalanced", mode)
		}
		if !crashing && st.Rebalanced != 0 {
			t.Errorf("failure-oblivious rebalanced %d requests — attacks must not trip shards", st.Rebalanced)
		}
		survival[mode.String()] = float64(survived) / float64(total)
	}
	fob := survival["failure-oblivious"]
	if !(fob > survival["standard"] && fob > survival["bounds-check"]) {
		t.Errorf("survival ordering broken under tripped shards: failure-oblivious %.2f, standard %.2f, bounds-check %.2f",
			fob, survival["standard"], survival["bounds-check"])
	}
}
