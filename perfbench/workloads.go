package main

import (
	"fmt"
	"strings"
	"time"

	"focc/fo"
	"focc/fo/srv"
)

// class is one kind of request in a traffic mix. Its key groups per-layer
// figures: "small" and "large" are legitimate work of two sizes, "attack"
// is the server's documented exploit input.
type class struct {
	key    string
	req    srv.Request
	weight int
}

func (c class) attack() bool { return c.key == "attack" }

// classKeys are the per-layer class groups, in report order.
var classKeys = []string{"small", "large", "attack"}

// workload is one traffic mix driven through a srv.Router fleet.
type workload struct {
	name    string
	server  string
	mode    fo.Mode
	classes []class
	tenants int
	// limit is the latency limit on legitimate requests and every
	// request's deadline, counted from its scheduled send time.
	limit time.Duration
	// low and high are the offered rates (requests/s) whose latency is
	// reported; with ladder, ascending, they form the rate ladder of the
	// sustained rate. over is the overload rate of goodput.
	low, high float64
	ladder    []float64
	over      float64
	// options are the router options the workload names; every fleet is
	// two shards of one worker each, so serving never has more workers
	// than the two CPUs the benchmark is sized for.
	options []srv.RouterOption
}

// failLimit is the largest share of legitimate requests a rung may lose
// (refused, shed, timed out, crashed or wrong) and still count as
// sustained.
const failLimit = 0.01

// fleet is the sizing every workload shares: two shards, one worker each.
func fleet(extra ...srv.Option) []srv.RouterOption {
	return []srv.RouterOption{
		srv.WithShards(2),
		srv.WithShardOptions(append([]srv.Option{srv.WithPoolSize(1)}, extra...)...),
	}
}

var (
	apacheSmall = srv.Request{Op: "GET", Arg: "/index.html"} // 5 KB page
	apacheLarge = srv.Request{Op: "GET", Arg: "/files/big"}  // 830 KB file
	// apacheAttack is the mod_rewrite capture overflow (§4.3): a URI with
	// sixteen groups against a rule whose match array holds ten.
	apacheAttack = srv.Request{Op: "GET", Arg: "/api/" + strings.Repeat("x/", 15) + "x"}

	smallBody = "hi!\n"
	largeBody = strings.Repeat("The quick brown fox jumps over the lazy dog 0123456789.\n", 74)[:4096]
	// sendmailAttack is the prescan overflow (§4.4): alternating '\' and
	// 0xFF bytes.
	sendmailAttack = srv.Request{Op: "mail", Arg: strings.Repeat("\\\xff", 400)}
)

func apacheMix() []class {
	return []class{
		{"small", apacheSmall, 85},
		{"large", apacheLarge, 5},
		{"attack", apacheAttack, 10},
	}
}

// workloads are the benchmark's traffic mixes. Their offered rates are
// absolute and fixed. They were sized once, on a 2-CPU x86-64 VM, against
// the knee: the highest rate at which legitimate p99 stays within the
// limit. low sits near a quarter to a third of it, high near a third to a
// half. The ladder runs in steps of 8–10% from about 0.7 to 1.3 times the
// knee, so that its top rungs fail and the sustained rate is set by the
// program, not by the ladder; the command says so when the top rung
// passes. over is 1.35 to 2.9 times the knee: the deepest overload at
// which goodput stayed steady between runs. Nearer the knee, run-to-run
// latency swings widely, so low and high stay well below it. A faster
// program then shows as lower latency, a higher sustained rate and more
// goodput, not as more offered load.
var workloads = []workload{
	// Per-request execution dominates: the engine, the policy checks, and
	// the event log on every attack. Restarts and checkpoints do no work.
	{
		name:    "apache-fo",
		server:  "apache",
		mode:    fo.FailureOblivious,
		classes: apacheMix(),
		tenants: 64,
		limit:   50 * time.Millisecond,
		low:     900,
		high:    1300,
		ladder:  []float64{2200, 2400, 2600, 2850, 3100, 3400, 3700, 4000},
		over:    5000,
		options: fleet(),
	},
	// The internal/mem checkpoint, commit and rollback path dominates, and
	// every attack must roll back without leaking state.
	{
		name:   "sendmail-rewind",
		server: "sendmail",
		mode:   fo.ModeRewind,
		classes: []class{
			{"small", srv.Request{Op: "recv", Payload: smallBody}, 45},
			{"small", srv.Request{Op: "send", Payload: smallBody}, 40},
			{"large", srv.Request{Op: "recv", Payload: largeBody}, 2},
			{"large", srv.Request{Op: "send", Payload: largeBody}, 3},
			{"attack", sendmailAttack, 10},
		},
		tenants: 64,
		limit:   50 * time.Millisecond,
		low:     800,
		high:    1000,
		ladder:  []float64{2100, 2300, 2500, 2750, 3000, 3300, 3650, 4000},
		over:    4200,
		options: fleet(),
	},
	// Tiny commands with fixed replies over many tenants, no attacks: the
	// router, queue, batcher and telemetry dominate, execution is small.
	{
		name:   "smtp-smallop",
		server: "sendmail",
		mode:   fo.FailureOblivious,
		classes: []class{
			{"small", srv.Request{Op: "helo", Arg: "client.example.org"}, 40},
			{"small", srv.Request{Op: "mail", Arg: "alice@example.org"}, 20},
			{"small", srv.Request{Op: "send", Payload: smallBody}, 40},
		},
		tenants: 512,
		limit:   20 * time.Millisecond,
		low:     6000,
		high:    9000,
		ladder:  []float64{15500, 17000, 18500, 20000, 22000, 24000, 26500, 29000},
		over:    56000,
		options: append(fleet(srv.WithBatching(16, time.Millisecond)),
			srv.WithTenantQuota(8)),
	},
	// Every attack kills its instance, so instance creation and
	// supervision are measured; with apache-fo, the shape of §4.3.2.
	{
		name:    "apache-bounds",
		server:  "apache",
		mode:    fo.BoundsCheck,
		classes: apacheMix(),
		tenants: 64,
		limit:   50 * time.Millisecond,
		low:     750,
		high:    1050,
		ladder:  []float64{1650, 1800, 1950, 2100, 2250, 2450, 2650, 2850},
		over:    3000,
		options: fleet(srv.WithWarmSpares(2)),
	},
}

func findWorkload(name string) (workload, error) {
	names := make([]string, len(workloads))
	for i, w := range workloads {
		if w.name == name {
			return w, nil
		}
		names[i] = w.name
	}
	return workload{}, fmt.Errorf("unknown workload %q (have %s)", name, strings.Join(names, ", "))
}
