package srv_test

import (
	"context"
	"io"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"focc/fo"
	"focc/fo/srv"
)

// TestMetricsHandler serves attack traffic through a failure-oblivious
// engine, scrapes the Prometheus endpoint, and checks the memory-error and
// latency series the attack must have produced.
func TestMetricsHandler(t *testing.T) {
	apacheSrv := newServer(t, "apache")
	eng, err := srv.NewEngine(apacheSrv, fo.FailureOblivious,
		srv.WithPoolSize(2), srv.WithQueueDepth(8), srv.WithDeadline(5*time.Second))
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	for i := 0; i < 2; i++ {
		if _, err := eng.Submit(context.Background(), apacheSrv.LegitRequests()[0]); err != nil {
			t.Fatal(err)
		}
		if _, err := eng.Submit(context.Background(), apacheSrv.AttackRequest()); err != nil {
			t.Fatal(err)
		}
	}

	ts := httptest.NewServer(srv.MetricsHandler(eng))
	defer ts.Close()
	resp, err := ts.Client().Get(ts.URL)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	text := string(body)

	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Errorf("content type = %q", ct)
	}
	for _, want := range []string{
		"fo_requests_served_total 4",
		`fo_memory_errors_total{kind="invalid_write"}`,
		`fo_memory_errors_total{kind="denied"} 0`,
		"fo_request_latency_seconds_count 4",
		`fo_request_latency_seconds_bucket{le="+Inf"} 4`,
	} {
		if !strings.Contains(text, want) {
			t.Errorf("metrics output missing %q:\n%s", want, text)
		}
	}
	// The attack discards writes, so the invalid_write series must be
	// nonzero — find its line and check the value.
	found := false
	for _, line := range strings.Split(text, "\n") {
		if strings.HasPrefix(line, `fo_memory_errors_total{kind="invalid_write"} `) {
			found = true
			if strings.HasSuffix(line, " 0") {
				t.Errorf("invalid_write counter is zero after attack: %s", line)
			}
		}
	}
	if !found {
		t.Error("invalid_write series absent")
	}

	m := eng.Metrics()
	if m.MemErrors.InvalidWrites == 0 {
		t.Error("Metrics snapshot has no discarded writes after attack")
	}
	if m.Latency.Count != 4 {
		t.Errorf("latency count = %d, want 4", m.Latency.Count)
	}
	if len(m.Latency.Buckets) == 0 {
		t.Error("latency snapshot has no buckets")
	}
}

// TestMetricsStrategyAttribution serves the Midnight Commander attack
// (invalid reads, so values are manufactured) through a context-aware
// engine and checks the per-strategy manufacture histogram: the snapshot
// carries Strategies and the Prometheus endpoint exports
// fo_manufactured_by_strategy_total.
func TestMetricsStrategyAttribution(t *testing.T) {
	mc := newServer(t, "mc")
	eng, err := srv.NewEngine(mc, fo.ModeFOContext,
		srv.WithPoolSize(1), srv.WithQueueDepth(4))
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	if _, err := eng.Submit(context.Background(), mc.AttackRequest()); err != nil {
		t.Fatal(err)
	}

	m := eng.Metrics()
	if m.MemErrors.InvalidReads == 0 {
		t.Fatal("attack produced no invalid reads")
	}
	if len(m.MemErrors.Strategies) == 0 {
		t.Fatal("snapshot has no per-strategy manufacture histogram")
	}
	var total uint64
	for _, n := range m.MemErrors.Strategies {
		total += n
	}
	if total != m.MemErrors.InvalidReads {
		t.Errorf("strategy histogram totals %d, want %d (one attribution per manufacture)",
			total, m.MemErrors.InvalidReads)
	}

	ts := httptest.NewServer(srv.MetricsHandler(eng))
	defer ts.Close()
	resp, err := ts.Client().Get(ts.URL)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(body), `fo_manufactured_by_strategy_total{strategy="`) {
		t.Errorf("metrics output missing fo_manufactured_by_strategy_total series:\n%s", body)
	}
}

// TestPerRequestAttribution checks Response.MemErrors through the public
// API: the attack request carries its own events, a legitimate request
// carries none.
func TestPerRequestAttribution(t *testing.T) {
	apacheSrv := newServer(t, "apache")
	eng, err := srv.NewEngine(apacheSrv, fo.FailureOblivious,
		srv.WithPoolSize(1), srv.WithQueueDepth(4))
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	resp, err := eng.Submit(context.Background(), apacheSrv.LegitRequests()[0])
	if err != nil {
		t.Fatal(err)
	}
	if n := resp.MemErrors.Total(); n != 0 {
		t.Errorf("legit request attributed %d events, want 0", n)
	}
	resp, err = eng.Submit(context.Background(), apacheSrv.AttackRequest())
	if err != nil {
		t.Fatal(err)
	}
	if resp.MemErrors.InvalidWrites == 0 {
		t.Error("attack request attributed no discarded writes")
	}
}
