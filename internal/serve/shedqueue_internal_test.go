package serve

import (
	"sync/atomic"
	"testing"
	"time"
)

// Regression test: the service-time EWMA must not survive a program hot
// swap. Before resetServiceEstimate was wired into Engine.Recycle, the
// estimate learned from the outgoing program kept driving
// unmeetable-deadline shedding for the incoming one — a slow outgoing
// program made the queue shed requests the new program could easily have
// served.
func TestShedQueueEWMAResetOnRecycle(t *testing.T) {
	var shed atomic.Uint64
	q := newShedQueue(4, ShedConfig{Target: time.Millisecond, Interval: 10 * time.Millisecond}, &shed)

	q.observe(50 * time.Millisecond)
	q.observe(70 * time.Millisecond)
	q.mu.Lock()
	got := q.svcEWMA
	q.mu.Unlock()
	if got == 0 {
		t.Fatal("svcEWMA = 0 after observations, want nonzero")
	}

	// Recycle routes through the queue (Router.Swap calls Recycle on every
	// shard, so swap coverage follows from this path).
	e := &Engine{q: q}
	e.Recycle()

	q.mu.Lock()
	got = q.svcEWMA
	q.mu.Unlock()
	if got != 0 {
		t.Fatalf("svcEWMA = %v after Recycle, want 0 (stale estimate must not outlive a hot swap)", got)
	}

	// The queue re-learns from the new program's observations.
	q.observe(2 * time.Millisecond)
	q.mu.Lock()
	got = q.svcEWMA
	q.mu.Unlock()
	if got != 2*time.Millisecond {
		t.Fatalf("svcEWMA = %v after first post-recycle observation, want 2ms cold-start", got)
	}
}
