package inject

import (
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"strings"
	"text/tabwriter"
	"time"

	"focc/fo"
	"focc/internal/core"
	"focc/internal/mem"
	"focc/internal/serve"
	"focc/internal/servers"
)

// Plan is the reproducible description of a fault-injection campaign.
// Together with the targets passed to Run it fully determines the outcome:
// every sampled choice is drawn from one PRNG seeded by Seed, and nothing
// during execution consumes additional randomness or wall-clock state, so
// two runs of the same (seed, plan) produce byte-identical reports.
type Plan struct {
	// Seed seeds the campaign PRNG.
	Seed int64
	// Faults is the number of fault points sampled per server (default 40).
	Faults int
	// MaxSteps is the per-call interpreter step budget for campaign
	// instances — the watchdog that turns an injected infinite loop into
	// a deterministic "deadline" outcome (default 2,000,000).
	MaxSteps uint64
	// Servers restricts the campaign to the named targets (nil = all).
	Servers []string
	// Modes restricts the comparison to the listed modes, in order
	// (nil = the full four-way matrix: standard, bounds-check,
	// failure-oblivious, rewind).
	Modes []fo.Mode
	// Strategies is the manufactured-value sweep set (nil = Strategies).
	Strategies []Strategy
	// Chaos configures the serving-layer chaos section; nil skips it.
	Chaos *ChaosPlan
}

// ChaosPlan is the process-level chaos section of a campaign: one
// single-worker engine per mode on the first target, fed sequentially so
// the counter-keyed injection (serve.ChaosConfig) is deterministic.
type ChaosPlan struct {
	// Requests is how many legitimate requests are driven per mode.
	Requests int
	// KillEvery / LatencyEvery / Latency mirror serve.ChaosConfig.
	KillEvery    uint64
	LatencyEvery uint64
	Latency      time.Duration
	// Deadline is the engine's per-request deadline; with
	// Latency > Deadline each delayed request deterministically returns
	// a deadline outcome. 0 disables deadlines (delays are pure latency).
	Deadline time.Duration
}

// DefaultPlan returns the standard campaign shape for the given seed and
// fault count: all servers, all strategies, and a chaos section whose
// injected latency comfortably exceeds the deadline so every delayed
// request trips it.
func DefaultPlan(seed int64, faults int) Plan {
	return Plan{
		Seed:   seed,
		Faults: faults,
		Chaos: &ChaosPlan{
			Requests:     24,
			KillEvery:    6,
			LatencyEvery: 9,
			Latency:      150 * time.Millisecond,
			Deadline:     50 * time.Millisecond,
		},
	}
}

// PointSpec is one sampled fault point. Only the fields relevant to the
// class are set; the spec is part of the report so a single fault can be
// replayed or attributed.
type PointSpec struct {
	// Class is the fault class.
	Class FaultClass
	// Req indexes the target's LegitRequests: the fault fires while this
	// request is being handled.
	Req int
	// Shape/At/Extra parameterize oob-read and oob-write faults: the
	// At-th load (or store) since machine creation is perturbed.
	Shape Shape  `json:",omitempty"`
	At    uint64 `json:",omitempty"`
	Extra uint64 `json:",omitempty"`
	// MallocN is the absolute ordinal of the failed allocation
	// (alloc-oom).
	MallocN uint64 `json:",omitempty"`
	// Unit/Offset/Mask parameterize corrupt-byte faults: the Offset-th
	// byte (mod size) of the Unit-th eligible data unit is XORed with
	// Mask before the request runs.
	Unit   int    `json:",omitempty"`
	Offset uint64 `json:",omitempty"`
	Mask   byte   `json:",omitempty"`
}

// PointOutcome classifies how one (mode, fault point) execution ended.
type PointOutcome string

// The outcome taxonomy.
const (
	// OutcomeSurvived: the server stayed up and produced exactly the
	// clean-run output for both the faulted request and a probe request.
	OutcomeSurvived PointOutcome = "survived"
	// OutcomeTerminated: the process died — a crash (Standard) or a
	// memory-error termination (BoundsCheck).
	OutcomeTerminated PointOutcome = "terminated"
	// OutcomeCorrupted: the server stayed up but the faulted request or
	// the probe produced output differing from the clean run.
	OutcomeCorrupted PointOutcome = "corrupted-output"
	// OutcomeDeadline: the request hung until the step-budget watchdog
	// (the campaign's deterministic stand-in for a wall-clock deadline).
	OutcomeDeadline PointOutcome = "deadline"
	// OutcomeRewound: the rewind policy rolled the faulted request back to
	// the request boundary — the request itself failed (no output
	// produced), but the server stayed up and the probe request matched
	// the clean run exactly. The server refused to answer rather than
	// answer wrongly, so this counts toward survival without being a
	// corrupted output.
	OutcomeRewound PointOutcome = "rewound"
)

// PointResult is the outcome of one fault point under one mode, with the
// memory-error events the instance logged (EventLog snapshot attribution).
type PointResult struct {
	Outcome   PointOutcome
	MemErrors uint64
}

// Cell aggregates one (server, mode) column of the campaign.
type Cell struct {
	Mode string
	// Outcome counts over the server's fault points.
	Survived   int
	Terminated int
	Corrupted  int
	Deadline   int
	// Rewound counts fault points the rewind policy rolled back cleanly
	// (zero outside the rewind cell).
	Rewound int
	// SurvivalRate is the fraction of fault points after which the
	// server was still serving (survived + corrupted-output + rewound):
	// the paper's availability metric — a server that keeps answering
	// with occasionally wrong output is degraded, one that refuses a
	// poisoned request but keeps serving is degraded less, and one that
	// is dead serves nobody.
	SurvivalRate float64
	// MemErrors totals the memory-error events logged across the cell.
	MemErrors uint64
	// Results holds the per-point outcomes, parallel to the server's
	// Points list.
	Results []PointResult
}

// ServerReport is the campaign result for one target.
type ServerReport struct {
	Server string
	Points []PointSpec
	Cells  []Cell
}

// SweepCell aggregates the failure-oblivious outcomes of all oob-read
// fault points (across all campaign servers) under one manufactured-value
// strategy.
type SweepCell struct {
	Strategy     Strategy
	Points       int
	Survived     int
	Terminated   int
	Corrupted    int
	Deadline     int
	SurvivalRate float64
}

// ChaosCell is one mode's serving-layer chaos result.
type ChaosCell struct {
	Mode      string
	Requests  int
	OK        int
	Deadlines int
	Kills     int
	Delays    int
	Restarts  int
}

// Report is the machine-readable campaign result. It is built from structs
// only (no maps, no timestamps), so its JSON encoding is deterministic.
type Report struct {
	Seed    int64
	Faults  int
	Modes   []string
	Servers []ServerReport
	// Sweep is the Durieux-style manufactured-value sweep: the same
	// oob-read fault points re-run under failure-oblivious with each
	// strategy.
	Sweep []SweepCell
	// Chaos is the serving-layer section (nil when the plan skips it).
	Chaos []ChaosCell `json:",omitempty"`
	// ChaosServer names the target the chaos section ran against.
	ChaosServer string `json:",omitempty"`
}

// JSON renders the report as indented JSON with a trailing newline. Same
// report, same bytes.
func (r *Report) JSON() ([]byte, error) {
	b, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return nil, err
	}
	return append(b, '\n'), nil
}

// campaignModes are the compilation modes the campaign compares: the
// paper's three-way evaluation matrix plus the rewind-and-discard policy,
// which trades manufactured values for request-boundary rollback.
var campaignModes = []fo.Mode{fo.Standard, fo.BoundsCheck, fo.FailureOblivious, fo.ModeRewind}

// profileInfo is a request's access footprint, measured by running it once
// on a counting (unarmed) instance: the injectable ordinal ranges for each
// fault class. Creation counts are the lower bounds — sampling above them
// keeps every fault inside request handling, not instance startup.
type profileInfo struct {
	creLoads, creStores, creMallocs uint64
	totLoads, totStores, totMallocs uint64
	units                           int // eligible corrupt-byte targets
}

// machiner is how the campaign reaches an instance's machine; servers.Base
// provides it on all five reproductions.
type machiner interface{ Machine() *fo.Machine }

func machineOf(inst servers.Instance) (*fo.Machine, error) {
	m, ok := inst.(machiner)
	if !ok {
		return nil, fmt.Errorf("inject: instance %T does not expose its machine", inst)
	}
	return m.Machine(), nil
}

// newInstance creates a fresh server and instance with the campaign's
// machine configuration: bounded steps, the injector wrapped around the
// accessor, and optionally an overridden value generator.
func newInstance(t Target, mode fo.Mode, maxSteps uint64, inj *Injector, gen core.ValueGenerator) (servers.Instance, servers.Server, error) {
	srv := t.New()
	c, ok := srv.(servers.Configurable)
	if !ok {
		return nil, nil, fmt.Errorf("inject: server %s is not servers.Configurable", t.Name)
	}
	inst, err := c.NewWithConfig(mode, func(cfg *fo.MachineConfig) {
		cfg.MaxSteps = maxSteps
		if inj != nil {
			cfg.WrapAccessor = inj.Wrap
		}
		if gen != nil {
			cfg.Gen = gen
			// A context-aware generator (the strategy search's per-site
			// engine) must arrive as the strategy, not just the fallback,
			// or ModeFOContext would auto-provision its default engine
			// over it.
			if cg, ok := gen.(core.ContextGenerator); ok {
				cfg.Strategy = cg
			}
		}
	})
	if err != nil {
		return nil, nil, fmt.Errorf("inject: create %s/%v instance: %w", t.Name, mode, err)
	}
	return inst, srv, nil
}

func releaseInstance(inst servers.Instance) {
	if r, ok := inst.(interface{ Release() }); ok {
		r.Release()
	}
}

// eligibleUnit reports whether a data unit is a corrupt-byte target:
// writable live program state (globals and heap blocks). Literals are
// read-only, headers and stack frames churn with execution.
func eligibleUnit(u *mem.Unit) bool {
	return (u.Kind == mem.KindGlobal || u.Kind == mem.KindHeap) &&
		!u.ReadOnly && !u.Dead && u.Size > 0
}

func countEligible(as *mem.AddressSpace) int {
	n := 0
	as.VisitUnits(func(u *mem.Unit) bool {
		if eligibleUnit(u) {
			n++
		}
		return true
	})
	return n
}

// corruptKth XORs mask into the (off mod size)-th byte of the k-th
// eligible unit. The walk order is deterministic and — because instance
// creation is mode-independent — identical across modes, so the same k
// names the same unit in every cell.
func corruptKth(as *mem.AddressSpace, k int, off uint64, mask byte) bool {
	i, done := 0, false
	as.VisitUnits(func(u *mem.Unit) bool {
		if !eligibleUnit(u) {
			return true
		}
		if i == k {
			u.Data[off%u.Size] ^= mask
			done = true
			return false
		}
		i++
		return true
	})
	return done
}

// profileRequest measures one request's access footprint. The profiling
// instance runs Standard mode: legitimate requests commit no memory
// errors, so the interpreter issues the identical load/store/malloc
// sequence in every mode and one profile serves all cells.
func profileRequest(t Target, reqIdx int, maxSteps uint64) (profileInfo, error) {
	var p profileInfo
	inj := &Injector{}
	inst, srv, err := newInstance(t, fo.Standard, maxSteps, inj, nil)
	if err != nil {
		return p, err
	}
	defer releaseInstance(inst)
	m, err := machineOf(inst)
	if err != nil {
		return p, err
	}
	as := m.AddressSpace()
	p.creLoads, p.creStores = inj.Loads(), inj.Stores()
	p.creMallocs = as.Stats().Mallocs
	p.units = countEligible(as)
	reqs := srv.LegitRequests()
	resp := inst.Handle(reqs[reqIdx])
	if resp.Crashed() {
		return p, fmt.Errorf("inject: %s legit request %d crashed while profiling: %v",
			t.Name, reqIdx, resp.Err)
	}
	p.totLoads, p.totStores = inj.Loads(), inj.Stores()
	p.totMallocs = as.Stats().Mallocs
	return p, nil
}

// sampleShape draws a perturbation shape, weighted toward the sequential
// overrun (the dominant real-world bug class the paper targets).
func sampleShape(rng *rand.Rand) Shape {
	switch rng.Intn(6) {
	case 0, 1, 2:
		return ShapePastEnd
	case 3:
		return ShapeBefore
	case 4:
		return ShapeWild
	}
	return ShapeNull
}

// samplePoint draws the class-specific parameters of one fault point, or
// reports false when the request has no injectable headroom for the class
// (e.g. a request that allocates nothing cannot host an alloc-oom fault).
func samplePoint(rng *rand.Rand, r int, class FaultClass, p profileInfo) (PointSpec, bool) {
	spec := PointSpec{Class: class, Req: r}
	switch class {
	case OOBRead:
		n := p.totLoads - p.creLoads
		if n == 0 {
			return spec, false
		}
		spec.At = p.creLoads + 1 + rng.Uint64()%n
		spec.Shape = sampleShape(rng)
		spec.Extra = rng.Uint64() % 48
	case OOBWrite:
		n := p.totStores - p.creStores
		if n == 0 {
			return spec, false
		}
		spec.At = p.creStores + 1 + rng.Uint64()%n
		spec.Shape = sampleShape(rng)
		spec.Extra = rng.Uint64() % 48
	case AllocFault:
		n := p.totMallocs - p.creMallocs
		if n == 0 {
			return spec, false
		}
		spec.MallocN = p.creMallocs + 1 + rng.Uint64()%n
	case CorruptByte:
		if p.units == 0 {
			return spec, false
		}
		spec.Unit = rng.Intn(p.units)
		spec.Offset = rng.Uint64()
		spec.Mask = byte(1 + rng.Intn(255))
	}
	return spec, true
}

// samplePoints draws the server's fault points: request, class, then
// class parameters, falling back through the class list in fixed order
// when the drawn class has no headroom on the drawn request.
func samplePoints(rng *rand.Rand, faults int, prof []profileInfo) []PointSpec {
	points := make([]PointSpec, 0, faults)
	for i := 0; i < faults; i++ {
		r := rng.Intn(len(prof))
		first := rng.Intn(len(Classes))
		for j := 0; j < len(Classes); j++ {
			class := Classes[(first+j)%len(Classes)]
			if spec, ok := samplePoint(rng, r, class, prof[r]); ok {
				points = append(points, spec)
				break
			}
		}
	}
	return points
}

// twin is the clean-run reference output for (mode, request): what the
// faulted run is compared against to detect corrupted output.
type twin struct {
	req, probe servers.Response
}

type twinKey struct {
	mode fo.Mode
	req  int
}

// cleanTwin runs request r (and its probe) on a fresh un-faulted instance
// and caches the outputs.
func cleanTwin(t Target, mode fo.Mode, r int, maxSteps uint64, cache map[twinKey]twin) (twin, error) {
	k := twinKey{mode: mode, req: r}
	if tw, ok := cache[k]; ok {
		return tw, nil
	}
	inst, srv, err := newInstance(t, mode, maxSteps, &Injector{}, nil)
	if err != nil {
		return twin{}, err
	}
	defer releaseInstance(inst)
	reqs := srv.LegitRequests()
	tw := twin{
		req:   inst.Handle(reqs[r]),
		probe: inst.Handle(reqs[(r+1)%len(reqs)]),
	}
	cache[k] = tw
	return tw, nil
}

// sameOutput compares the externally visible result of a request with the
// clean-run reference.
func sameOutput(a, b servers.Response) bool {
	return a.Outcome == b.Outcome && a.Status == b.Status && a.Body == b.Body
}

// runPoint executes one fault point under one mode and classifies the
// outcome. gen overrides the manufactured-value generator (nil = the
// paper's small-integer sequence).
func runPoint(t Target, mode fo.Mode, spec PointSpec, p profileInfo, maxSteps uint64,
	gen core.ValueGenerator, twins map[twinKey]twin) (PointResult, error) {
	inj := &Injector{}
	inst, srv, err := newInstance(t, mode, maxSteps, inj, gen)
	if err != nil {
		return PointResult{}, err
	}
	defer releaseInstance(inst)
	m, err := machineOf(inst)
	if err != nil {
		return PointResult{}, err
	}
	switch spec.Class {
	case OOBRead:
		inj.Arm(false, spec.At, spec.Shape, spec.Extra)
	case OOBWrite:
		inj.Arm(true, spec.At, spec.Shape, spec.Extra)
	case AllocFault:
		// The countdown counts mallocs from now (instance creation has
		// already consumed creMallocs), landing on the absolute
		// MallocN-th allocation.
		m.AddressSpace().InjectMallocFault(spec.MallocN - p.creMallocs)
	case CorruptByte:
		corruptKth(m.AddressSpace(), spec.Unit, spec.Offset, spec.Mask)
	}
	reqs := srv.LegitRequests()
	resp := inst.Handle(reqs[spec.Req])
	res := PointResult{MemErrors: inst.Log().Snapshot().Total()}
	if resp.Outcome == fo.OutcomeHang {
		res.Outcome = OutcomeDeadline
		return res, nil
	}
	if resp.Crashed() || !inst.Alive() {
		res.Outcome = OutcomeTerminated
		return res, nil
	}
	// The server survived the faulted request; probe it with the next
	// legitimate request to catch latent state corruption, then compare
	// both outputs against the clean twin.
	probe := inst.Handle(reqs[(spec.Req+1)%len(reqs)])
	res.MemErrors = inst.Log().Snapshot().Total()
	if probe.Outcome == fo.OutcomeHang {
		res.Outcome = OutcomeDeadline
		return res, nil
	}
	if probe.Crashed() || !inst.Alive() {
		res.Outcome = OutcomeTerminated
		return res, nil
	}
	tw, err := cleanTwin(t, mode, spec.Req, maxSteps, twins)
	if err != nil {
		return PointResult{}, err
	}
	if resp.Outcome == fo.OutcomeRewound {
		// The rewind policy rolled the faulted request back; its output is
		// an explicit refusal, not a wrong answer, so only the probe is
		// compared: a matching probe proves the rollback left no trace, a
		// diverging one means corruption escaped the checkpoint (e.g. a
		// pre-request corrupt-byte fault the rollback cannot reach).
		if sameOutput(probe, tw.probe) {
			res.Outcome = OutcomeRewound
		} else {
			res.Outcome = OutcomeCorrupted
		}
		return res, nil
	}
	if sameOutput(resp, tw.req) && sameOutput(probe, tw.probe) {
		res.Outcome = OutcomeSurvived
	} else {
		res.Outcome = OutcomeCorrupted
	}
	return res, nil
}

// tally folds a point result into a cell's counters.
func (c *Cell) tally(r PointResult) {
	switch r.Outcome {
	case OutcomeSurvived:
		c.Survived++
	case OutcomeTerminated:
		c.Terminated++
	case OutcomeCorrupted:
		c.Corrupted++
	case OutcomeDeadline:
		c.Deadline++
	case OutcomeRewound:
		c.Rewound++
	}
	c.MemErrors += r.MemErrors
	c.Results = append(c.Results, r)
}

func (c *Cell) finish(points int) {
	if points > 0 {
		c.SurvivalRate = float64(c.Survived+c.Corrupted+c.Rewound) / float64(points)
	}
}

// Run executes the campaign described by plan over targets (use
// AllTargets() for the paper's five servers) and returns the report.
func Run(plan Plan, targets []Target) (*Report, error) {
	if plan.Faults <= 0 {
		plan.Faults = 40
	}
	if plan.MaxSteps == 0 {
		plan.MaxSteps = 2_000_000
	}
	strategies := plan.Strategies
	if strategies == nil {
		strategies = Strategies
	}
	selected, err := selectTargets(plan.Servers, targets)
	if err != nil {
		return nil, err
	}
	modes := plan.Modes
	if len(modes) == 0 {
		modes = campaignModes
	}

	rep := &Report{Seed: plan.Seed, Faults: plan.Faults}
	for _, m := range modes {
		rep.Modes = append(rep.Modes, m.String())
	}
	sweepAgg := make([]SweepCell, len(strategies))
	for i, s := range strategies {
		sweepAgg[i].Strategy = s
	}

	rng := rand.New(rand.NewSource(plan.Seed))
	for ti, t := range selected {
		srvRep := ServerReport{Server: t.Name}

		// Profile every legitimate request's access footprint once.
		probe := t.New().LegitRequests()
		prof := make([]profileInfo, len(probe))
		for r := range probe {
			if prof[r], err = profileRequest(t, r, plan.MaxSteps); err != nil {
				return nil, err
			}
		}
		srvRep.Points = samplePoints(rng, plan.Faults, prof)

		twins := make(map[twinKey]twin)
		for _, mode := range modes {
			cell := Cell{Mode: mode.String()}
			for _, spec := range srvRep.Points {
				res, err := runPoint(t, mode, spec, prof[spec.Req], plan.MaxSteps, nil, twins)
				if err != nil {
					return nil, err
				}
				cell.tally(res)
			}
			cell.finish(len(srvRep.Points))
			srvRep.Cells = append(srvRep.Cells, cell)
		}

		// Manufactured-value sweep: re-run the oob-read points (the only
		// class where invalid reads consume manufactured values) under
		// failure-oblivious with each strategy.
		for si, s := range strategies {
			agg := &sweepAgg[si]
			for pi, spec := range srvRep.Points {
				if spec.Class != OOBRead {
					continue
				}
				// Deterministic per-point generator seed; only the
				// random strategy consumes it.
				genSeed := plan.Seed + int64(ti+1)*1_000_003 + int64(pi+1)*7919
				res, err := runPoint(t, fo.FailureOblivious, spec, prof[spec.Req],
					plan.MaxSteps, s.Generator(genSeed), twins)
				if err != nil {
					return nil, err
				}
				agg.Points++
				switch res.Outcome {
				case OutcomeSurvived:
					agg.Survived++
				case OutcomeTerminated:
					agg.Terminated++
				case OutcomeCorrupted:
					agg.Corrupted++
				case OutcomeDeadline:
					agg.Deadline++
				}
			}
		}

		rep.Servers = append(rep.Servers, srvRep)
	}
	for i := range sweepAgg {
		if sweepAgg[i].Points > 0 {
			sweepAgg[i].SurvivalRate =
				float64(sweepAgg[i].Survived+sweepAgg[i].Corrupted) / float64(sweepAgg[i].Points)
		}
	}
	rep.Sweep = sweepAgg

	if plan.Chaos != nil && len(selected) > 0 {
		rep.ChaosServer = selected[0].Name
		if rep.Chaos, err = runChaos(selected[0], *plan.Chaos, modes); err != nil {
			return nil, err
		}
	}
	return rep, nil
}

// selectTargets resolves the plan's server-name filter.
func selectTargets(names []string, targets []Target) ([]Target, error) {
	if len(names) == 0 {
		return targets, nil
	}
	byName := map[string]Target{}
	for _, t := range targets {
		byName[t.Name] = t
	}
	out := make([]Target, 0, len(names))
	for _, n := range names {
		t, ok := byName[strings.TrimSpace(n)]
		if !ok {
			return nil, fmt.Errorf("inject: unknown campaign server %q", n)
		}
		out = append(out, t)
	}
	return out, nil
}

// runChaos drives the serving-layer chaos section: per mode, a
// single-worker engine fed sequentially, with counter-keyed kills and
// delays (see serve.ChaosConfig for why this is deterministic).
func runChaos(t Target, cp ChaosPlan, modes []fo.Mode) ([]ChaosCell, error) {
	var cells []ChaosCell
	for _, mode := range modes {
		srv := t.New()
		opts := []serve.Option{
			serve.WithPoolSize(1),
			serve.WithQueueDepth(cp.Requests + 1),
			serve.WithChaos(serve.ChaosConfig{
				KillEvery:    cp.KillEvery,
				LatencyEvery: cp.LatencyEvery,
				Latency:      cp.Latency,
			}),
		}
		if cp.Deadline > 0 {
			opts = append(opts, serve.WithDeadline(cp.Deadline))
		}
		eng, err := serve.New(srv, mode, opts...)
		if err != nil {
			return nil, fmt.Errorf("inject: chaos engine %s/%v: %w", t.Name, mode, err)
		}
		reqs := srv.LegitRequests()
		cell := ChaosCell{Mode: mode.String(), Requests: cp.Requests}
		for i := 0; i < cp.Requests; i++ {
			resp, err := eng.Submit(context.Background(), reqs[i%len(reqs)])
			if err != nil {
				continue
			}
			switch resp.Outcome {
			case fo.OutcomeOK:
				cell.OK++
			case fo.OutcomeDeadline:
				cell.Deadlines++
			}
		}
		// Exact without polling: the engine counts a kill and its
		// immediate restart before it answers the killed request.
		st := eng.Stats()
		eng.Close()
		cell.Kills = int(st.ChaosKills)
		cell.Delays = int(st.ChaosDelays)
		cell.Restarts = int(st.Restarts)
		cells = append(cells, cell)
	}
	return cells, nil
}

// FormatReport renders the human summary table.
func FormatReport(r *Report) string {
	var b strings.Builder
	fmt.Fprintf(&b, "fault-injection campaign: seed=%d faults=%d/server\n", r.Seed, r.Faults)
	w := tabwriter.NewWriter(&b, 2, 0, 2, ' ', 0)
	fmt.Fprintln(w, "server\tmode\tsurvived\tterminated\tcorrupted\trewound\tdeadline\tsurvival\tmem-errors")
	for _, s := range r.Servers {
		for _, c := range s.Cells {
			fmt.Fprintf(w, "%s\t%s\t%d\t%d\t%d\t%d\t%d\t%.1f%%\t%d\n",
				s.Server, c.Mode, c.Survived, c.Terminated, c.Corrupted,
				c.Rewound, c.Deadline, 100*c.SurvivalRate, c.MemErrors)
		}
	}
	w.Flush()
	if len(r.Sweep) > 0 {
		fmt.Fprintf(&b, "\nmanufactured-value sweep (failure-oblivious, oob-read points):\n")
		w = tabwriter.NewWriter(&b, 2, 0, 2, ' ', 0)
		fmt.Fprintln(w, "strategy\tpoints\tsurvived\tterminated\tcorrupted\tdeadline\tsurvival")
		for _, c := range r.Sweep {
			fmt.Fprintf(w, "%s\t%d\t%d\t%d\t%d\t%d\t%.1f%%\n",
				c.Strategy, c.Points, c.Survived, c.Terminated, c.Corrupted,
				c.Deadline, 100*c.SurvivalRate)
		}
		w.Flush()
	}
	if len(r.Chaos) > 0 {
		fmt.Fprintf(&b, "\nserving-layer chaos (%s, %d requests/mode):\n",
			r.ChaosServer, r.Chaos[0].Requests)
		w = tabwriter.NewWriter(&b, 2, 0, 2, ' ', 0)
		fmt.Fprintln(w, "mode\tok\tdeadlines\tkills\tdelays\trestarts")
		for _, c := range r.Chaos {
			fmt.Fprintf(w, "%s\t%d\t%d\t%d\t%d\t%d\n",
				c.Mode, c.OK, c.Deadlines, c.Kills, c.Delays, c.Restarts)
		}
		w.Flush()
	}
	return b.String()
}
