package main

import (
	"context"
	"testing"
	"time"

	"focc/fo"
	"focc/fo/srv"
)

// optional lists every capability the serving engine discovers on an
// instance by type assertion.
type optional interface {
	Release()
	Kill()
	BeginBatch()
	EndBatch()
	BindBatch(context.Context) func()
}

var _ optional = (*tracedInstance)(nil)

// TestTracedInstanceForwards checks that the wrapped instances really have
// every capability the traced wrapper forwards, so the forwarding is not
// vacuous, and that a traced handle stamps its span.
func TestTracedInstanceForwards(t *testing.T) {
	for _, w := range workloads {
		server, err := srv.New(w.server)
		if err != nil {
			t.Fatal(err)
		}
		inst, err := tracedServer{Server: server, spawns: &spawnLog{}}.New(w.mode)
		if err != nil {
			t.Fatal(err)
		}
		if _, ok := inst.(*tracedInstance).Instance.(optional); !ok {
			t.Errorf("%s instance lacks a capability the engine looks for", w.server)
		}
		var r result
		ctx := context.WithValue(context.Background(), spanKey{}, &r)
		inst.HandleContext(ctx, w.classes[0].req)
		if r.handleEnd <= r.handleStart {
			t.Errorf("%s: handle span [%v, %v] not stamped", w.name, r.handleStart, r.handleEnd)
		}
		inst.(optional).Release()
	}
}

// TestRequestsMatchServers pins the traffic mixes to the servers' own
// documented requests.
func TestRequestsMatchServers(t *testing.T) {
	apache, _ := srv.New("apache")
	sendmail, _ := srv.New("sendmail")
	if got, want := apacheAttack, apache.AttackRequest(); got != want {
		t.Errorf("apache attack %q, server documents %q", got.Arg, want.Arg)
	}
	if got, want := sendmailAttack, sendmail.AttackRequest(); got != want {
		t.Errorf("sendmail attack differs from the server's")
	}
	legit := sendmail.LegitRequests()
	if legit[0].Payload != smallBody || legit[1].Payload != largeBody {
		t.Error("sendmail message bodies differ from the server's Figure 4 bodies")
	}
	if got := apache.LegitRequests(); got[0] != apacheSmall || got[1] != apacheLarge {
		t.Error("apache pages differ from the server's Small and Large pages")
	}
}

// TestLatencyCountsFromDueTime checks the open-loop accounting: a request
// sent late reports its lag, and its latency includes the lag.
func TestLatencyCountsFromDueTime(t *testing.T) {
	w, err := findWorkload("smtp-smallop")
	if err != nil {
		t.Fatal(err)
	}
	server, _ := srv.New(w.server)
	refs, err := references(server, w)
	if err != nil {
		t.Fatal(err)
	}
	rt, err := srv.NewRouter(server, w.mode, w.options...)
	if err != nil {
		t.Fatal(err)
	}
	defer rt.Close()
	d := &client{w: w, rt: rt, refs: refs}
	var r result
	d.send(time.Now().Add(-5*time.Millisecond), w.limit, &arrival{tenant: "t"}, &r)
	if r.verdict != good {
		t.Fatalf("verdict %d, want good", r.verdict)
	}
	if r.lag < 5*time.Millisecond || r.lat < r.lag {
		t.Errorf("lag %v, latency %v: want lag ≥ 5ms and latency ≥ lag", r.lag, r.lat)
	}
}

// TestSmoke runs a short traced and untraced pass of every workload: every
// reply matches the reference, counters agree with the answers, and each
// workload loads the layer it was chosen for.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("drives every workload for a few seconds")
	}
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			p, err := pass(w, 7, 1500*time.Millisecond, true)
			if err != nil {
				t.Fatal(err)
			}
			for _, v := range p.violations {
				t.Error(v)
			}
			for _, name := range []string{"low", "high", "over"} {
				for _, run := range p.of(name) {
					if !run.lagOK {
						// Timing validity, not correctness: a slow or
						// loaded machine (or the race detector) cannot
						// keep the schedule.
						t.Skipf("generator fell behind in a %s cell", name)
					}
				}
			}
			s := summarize(p.cells...)
			if s.legitGood == 0 {
				t.Fatal("no legitimate request answered in time")
			}
			switch w.mode {
			case fo.ModeRewind:
				if p.stats.Rewound == 0 {
					t.Error("no attack was rolled back")
				}
			case fo.BoundsCheck:
				if p.stats.Crashes == 0 || len(p.spawns) == 0 {
					t.Errorf("crashes %d, spawns %d: attacks must kill instances", p.stats.Crashes, len(p.spawns))
				}
			default:
				if len(p.spawns) != 0 || p.stats.Crashes != 0 {
					t.Errorf("crashes %d, spawns %d under %v", p.stats.Crashes, len(p.spawns), w.mode)
				}
			}
			if w.name == "smtp-smallop" && p.stats.Batches == 0 {
				t.Error("batching never coalesced a batch")
			}
		})
	}
}
