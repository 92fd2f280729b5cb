package main

import (
	"context"
	"fmt"
	"math"
	"sync"
	"time"

	"focc/fo"
	"focc/fo/srv"
)

// tracedServer wraps the served program for the traced run: it times every
// instance creation and hands out traced instances.
type tracedServer struct {
	srv.Server
	spawns *spawnLog
}

func (s tracedServer) New(mode fo.Mode) (srv.Instance, error) {
	t0 := time.Now()
	inst, err := s.Server.New(mode)
	s.spawns.add(time.Since(t0))
	if err != nil {
		return nil, err
	}
	return &tracedInstance{Instance: inst}, nil
}

// spawnLog records instance-creation times; the engine spawns from its
// workers and its warm-spare filler, so it is safe for concurrent use.
type spawnLog struct {
	mu sync.Mutex
	ds []time.Duration
}

func (l *spawnLog) add(d time.Duration) {
	l.mu.Lock()
	l.ds = append(l.ds, d)
	l.mu.Unlock()
}

// since returns the creation times recorded after the first n.
func (l *spawnLog) since(n int) []time.Duration {
	l.mu.Lock()
	defer l.mu.Unlock()
	return append([]time.Duration(nil), l.ds[n:]...)
}

func (l *spawnLog) count() int {
	l.mu.Lock()
	defer l.mu.Unlock()
	return len(l.ds)
}

// tracedInstance stamps the handle span of every request that carries a
// *result in its context. It forwards every optional capability the
// serving engine discovers by type assertion — Release, Kill,
// BeginBatch/EndBatch and BindBatch — so that slab reuse, chaos kills,
// batch checkpoint epochs and batch context binds stay on: without them
// the traced run would measure a different program.
type tracedInstance struct {
	srv.Instance
}

func (t *tracedInstance) HandleContext(ctx context.Context, req srv.Request) srv.Response {
	r, _ := ctx.Value(spanKey{}).(*result)
	if r == nil {
		return t.Instance.HandleContext(ctx, req)
	}
	r.handleStart = sinceEpoch()
	resp := t.Instance.HandleContext(ctx, req)
	r.handleEnd = sinceEpoch()
	return resp
}

func (t *tracedInstance) Release() {
	if r, ok := t.Instance.(interface{ Release() }); ok {
		r.Release()
	}
}

func (t *tracedInstance) Kill() {
	if k, ok := t.Instance.(interface{ Kill() }); ok {
		k.Kill()
	}
}

func (t *tracedInstance) BeginBatch() {
	if b, ok := t.Instance.(interface{ BeginBatch() }); ok {
		b.BeginBatch()
	}
}

func (t *tracedInstance) EndBatch() {
	if b, ok := t.Instance.(interface{ EndBatch() }); ok {
		b.EndBatch()
	}
}

func (t *tracedInstance) BindBatch(ctx context.Context) (release func()) {
	if b, ok := t.Instance.(interface {
		BindBatch(context.Context) func()
	}); ok {
		return b.BindBatch(ctx)
	}
	return func() {}
}

// spans are a traced cell's span lengths, one per request that reached an
// instance.
type spans struct {
	// handle holds handle spans by class key, and by rewind outcome under
	// "commit" and "rewound".
	handle          map[string][]time.Duration
	pre, post, self []time.Duration
	busy            time.Duration // the handle spans' sum
}

func (d *client) spansOf(arr []arrival, res []result) spans {
	var sp spans
	for i, r := range res {
		if r.handleEnd == 0 {
			continue // never reached an instance
		}
		h := r.handleEnd - r.handleStart
		sp.addHandle(d.w.classes[arr[i].class].key, h)
		switch r.outcome {
		case fo.OutcomeRewound:
			sp.addHandle("rewound", h)
		case fo.OutcomeOK:
			sp.addHandle("commit", h)
		}
		sp.busy += h
		sp.pre = append(sp.pre, r.handleStart-r.submitStart)
		sp.post = append(sp.post, r.submitEnd-r.handleEnd)
		sp.self = append(sp.self, selfTime(r.submitStart, r.submitEnd, r.handleStart, r.handleEnd))
	}
	return sp
}

func (sp *spans) addHandle(key string, ds ...time.Duration) {
	if sp.handle == nil {
		sp.handle = map[string][]time.Duration{}
	}
	sp.handle[key] = append(sp.handle[key], ds...)
}

// add merges o into sp.
func (sp *spans) add(o spans) {
	for key, ds := range o.handle {
		sp.addHandle(key, ds...)
	}
	sp.pre = append(sp.pre, o.pre...)
	sp.post = append(sp.post, o.post...)
	sp.self = append(sp.self, o.self...)
	sp.busy += o.busy
}

// traceTolerance is how far the traced pass's restarts, rolled-back attacks
// and mean batch size may depart from the untraced pass's, as a share of
// the larger figure. Both passes send the same schedule, but load decides
// how many attacks run before their deadline, and a cell the generator fell
// behind in is sent again.
const traceTolerance = 0.25

// agree lists where the traced pass's counters depart from the untraced
// pass's by more than traceTolerance. A wrapper that hid a capability from
// the engine would turn off batching, restarts or rollback in the traced
// program only.
func agree(plain, tr srv.RouterStats) []string {
	var out []string
	check := func(name string, a, b float64) {
		if math.Abs(a-b) > traceTolerance*max(a, b) {
			out = append(out, fmt.Sprintf("traced pass %s %.4g, untraced %.4g", name, b, a))
		}
	}
	check("Restarts", float64(plain.Restarts), float64(tr.Restarts))
	check("Rewound", float64(plain.Rewound), float64(tr.Rewound))
	check("mean batch size", batchSize(plain), batchSize(tr))
	return out
}

// batchSize is the mean number of requests per batch, or 0 without
// batching.
func batchSize(s srv.RouterStats) float64 {
	return ratio(float64(s.Served), float64(s.Batches))
}
