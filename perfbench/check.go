package main

import (
	"context"
	"fmt"
	"time"

	"focc/fo"
	"focc/fo/srv"
)

// reply is the part of a response the correctness check compares.
type reply struct {
	outcome fo.Outcome
	status  int
	body    string
}

func replyOf(r srv.Response) reply { return reply{r.Outcome, r.Status, r.Body} }

// verdict is what became of one request.
type verdict uint8

const (
	good     verdict = iota // the reference reply, within the latency limit
	late                    // the reference reply, after the limit
	refused                 // Submit error: queue full, shed, over quota or limit
	timedOut                // the request's deadline expired
	wrong                   // any other reply: a broken invariant
)

// judge compares one answer with the reply a fresh, unloaded instance
// gives to the same request. A refusal or an expired deadline is a load
// outcome; any other difference, a crash included, is wrong.
func judge(resp srv.Response, err error, lat, limit time.Duration, want reply) verdict {
	switch {
	case err != nil:
		return refused
	case resp.Outcome == fo.OutcomeDeadline:
		return timedOut
	case replyOf(resp) != want:
		return wrong
	case lat > limit:
		return late
	}
	return good
}

// references answers every class of w on its own fresh instance, in
// isolation, and checks the mode's invariant on each reference: legitimate
// requests succeed; an attack is served under failure-oblivious, rolled
// back under rewind, and fatal under bounds checking.
func references(server srv.Server, w workload) ([]reply, error) {
	refs := make([]reply, len(w.classes))
	for i, c := range w.classes {
		inst, err := server.New(w.mode)
		if err != nil {
			return nil, fmt.Errorf("reference instance: %w", err)
		}
		resp := inst.HandleContext(context.Background(), c.req)
		releaseInstance(inst)
		refs[i] = replyOf(resp)
		if msg := expectation(w.mode, c, resp); msg != "" {
			return nil, fmt.Errorf("reference %s %s %q: %s, got %v", w.server, c.key, c.req.Op, msg, resp.Outcome)
		}
	}
	return refs, nil
}

// expectation returns what a reference reply lacks, or "" when it shows
// the behaviour the mode promises.
func expectation(mode fo.Mode, c class, resp srv.Response) string {
	switch {
	case !c.attack():
		if resp.Outcome != fo.OutcomeOK {
			return "legitimate request must succeed"
		}
	case mode == fo.ModeRewind:
		if resp.Outcome != fo.OutcomeRewound {
			return "attack must be rolled back"
		}
	case mode == fo.BoundsCheck:
		if !resp.Crashed() {
			return "attack must kill the instance"
		}
	case resp.Crashed():
		return "attack must not crash"
	}
	return ""
}

// releaseInstance returns a retired instance's pooled memory when the
// instance supports it, as the serving engine does.
func releaseInstance(inst srv.Instance) {
	if r, ok := inst.(interface{ Release() }); ok {
		r.Release()
	}
}
