package serve_test

import (
	"context"
	"fmt"
	"sync"
	"testing"
	"time"

	"focc/fo"
	"focc/internal/serve"
	"focc/internal/servers"
)

// TestRouterSwapRecyclesIdleShards: a shard (or worker) that happens to
// receive no traffic around the swap must still serve the new program for
// every later request. Regression test for a scheduling race where a worker
// goroutine first scheduled *after* the swap read the already-bumped
// generation for its construction-time old-program instance, tagging it
// current and dodging recycle forever. Short phases + many iterations make
// the late-worker-start window easy to hit on a loaded scheduler.
func TestRouterSwapRecyclesIdleShards(t *testing.T) {
	if testing.Short() {
		t.Skip("swap stress")
	}
	for iter := 0; iter < 100; iter++ {
		rt, err := serve.NewRouter(&stubServer{}, fo.FailureOblivious,
			serve.WithShards(2),
			serve.WithShardOptions(
				serve.WithPoolSize(2), serve.WithQueueDepth(64), serve.WithWarmSpares(1)))
		if err != nil {
			t.Fatal(err)
		}
		stop := make(chan struct{})
		var wg sync.WaitGroup
		for c := 0; c < 8; c++ {
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
					rt.Submit(context.Background(), tenant, servers.Request{Op: "ok"})
				}
			}(c)
		}
		time.Sleep(3 * time.Millisecond)
		rt.Swap(&stubServerV2{})
		time.Sleep(3 * time.Millisecond)
		close(stop)
		wg.Wait()
		// Probes hash to assorted shards; every one must run the new
		// program regardless of what load its shard saw before the swap.
		for i := 0; i < 4; i++ {
			tenant := fmt.Sprintf("probe-%d", i)
			resp, err := rt.Submit(context.Background(), tenant, servers.Request{Op: "ok"})
			if err != nil || resp.Status != 201 {
				t.Fatalf("iter %d %s: post-swap = %v, %v; want 201 from the new program", iter, tenant, resp, err)
			}
		}
		rt.Close()
	}
}

// TestRecycleWithoutShedding: Recycle on an engine whose queue does not
// shed still replaces the instance before the next request, and that
// request is served by the replacement.
func TestRecycleWithoutShedding(t *testing.T) {
	eng, err := serve.New(&stubServer{}, fo.FailureOblivious,
		serve.WithPoolSize(1), serve.WithQueueDepth(2))
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	eng.Recycle()
	resp, err := eng.Submit(nil, servers.Request{Op: "ok"})
	if err != nil {
		t.Fatal(err)
	}
	if !resp.OK() {
		t.Fatalf("request after Recycle = %v, want OK", resp)
	}
	if st := eng.Stats(); st.Recycles != 1 || st.Served != 1 {
		t.Errorf("recycles/served = %d/%d, want 1/1", st.Recycles, st.Served)
	}
}
