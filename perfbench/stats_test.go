package main

import (
	"errors"
	"slices"
	"testing"
	"time"

	"focc/fo"
	"focc/fo/srv"
)

func ms(n int) time.Duration { return time.Duration(n) * time.Millisecond }

// series returns 1ms, 2ms, …, n ms.
func series(n int) []time.Duration {
	ds := make([]time.Duration, n)
	for i := range ds {
		ds[i] = ms(i + 1)
	}
	return ds
}

func TestPercentileNeedsTenBeyond(t *testing.T) {
	// p99 of 1000 samples has rank 990 and exactly ten samples above it.
	if v, ok := percentile(series(1000), 0.99); !ok || v != ms(990) {
		t.Errorf("p99 of 1000 = %v, %v; want 990ms, true", v, ok)
	}
	// With 999 samples only nine lie beyond rank 990: not reported.
	if _, ok := percentile(series(999), 0.99); ok {
		t.Error("p99 of 999 samples reported; nine samples lie beyond it")
	}
	if v, ok := percentile(series(21), 0.5); !ok || v != ms(11) {
		t.Errorf("p50 of 21 = %v, %v; want 11ms, true", v, ok)
	}
	if _, ok := percentile(nil, 0.5); ok {
		t.Error("p50 of no samples reported")
	}
	// quantile reports an unsupported percentile as 0.
	if got := quantile(series(50), 0.99); got != 0 {
		t.Errorf("quantile(p99 of 50) = %v, want 0", got)
	}
}

func TestFailuresMissTheLimit(t *testing.T) {
	ref := reply{outcome: fo.OutcomeOK, status: 200, body: "page"}
	limit := ms(50)
	ok := srv.Response{Outcome: fo.OutcomeOK, Status: 200, Body: "page"}
	cases := []struct {
		name string
		resp srv.Response
		err  error
		lat  time.Duration
		want verdict
	}{
		{"in time", ok, nil, ms(3), good},
		{"after the limit", ok, nil, ms(60), late},
		{"queue full", srv.Response{}, srv.ErrQueueFull, ms(1), refused},
		{"shed", srv.Response{}, srv.ErrShed, ms(1), refused},
		{"over quota", srv.Response{}, srv.ErrOverQuota, ms(1), refused},
		{"deadline", srv.Response{Outcome: fo.OutcomeDeadline}, nil, ms(50), timedOut},
		{"crash", srv.Response{Outcome: fo.OutcomeSegfault, Err: errors.New("boom")}, nil, ms(1), wrong},
		{"wrong body", srv.Response{Outcome: fo.OutcomeOK, Status: 200, Body: "other"}, nil, ms(1), wrong},
	}
	for _, c := range cases {
		if got := judge(c.resp, c.err, c.lat, limit, ref); got != c.want {
			t.Errorf("%s: verdict %d, want %d", c.name, got, c.want)
		}
	}

	// A refusal is answered at once, yet it counts as a failure that
	// misses every latency limit, so it pushes p99 over the limit.
	w := workload{classes: []class{{key: "small", weight: 1}}, limit: limit}
	d := &client{w: w}
	res := make([]result, 1000)
	for i := range res {
		res[i] = result{lat: ms(1), verdict: good, submitted: true}
	}
	for i := 0; i < 20; i++ {
		res[i] = result{lat: time.Microsecond, verdict: refused}
	}
	s := d.tally(make([]arrival, len(res)), res)
	if s.legitFailed != 20 || s.failShare() != 0.02 {
		t.Errorf("failed %d, share %v; want 20, 0.02", s.legitFailed, s.failShare())
	}
	if p99, _ := percentile(s.legitLat, 0.99); p99 != failed {
		t.Errorf("p99 = %v, want a failure", p99)
	}
	if p50, _ := percentile(s.legitLat, 0.5); p50 != ms(1) {
		t.Errorf("p50 = %v, want 1ms", p50)
	}
	// A reported latency that lands on a failure reads as twice the limit.
	if v, ok := d.legitMS(s.legitLat, 0.99); !ok || v != 100 {
		t.Errorf("legitMS p99 = %v, %v; want 100, true", v, ok)
	}

	// Folded cells merge: two copies hold twice the requests and failures.
	two := summarize(cellRun{sum: s}, cellRun{sum: s})
	if two.legit != 2000 || two.legitFailed != 40 || len(two.legitLat) != 2000 || !slices.IsSorted(two.legitLat) {
		t.Errorf("merged %d legit, %d failed, %d latencies", two.legit, two.legitFailed, len(two.legitLat))
	}
}

func TestSelfTime(t *testing.T) {
	cases := []struct {
		name                   string
		s0, s1, h0, h1, wanted time.Duration
	}{
		{"handle inside submit", ms(0), ms(10), ms(4), ms(9), ms(5)},
		{"never handled", ms(0), ms(10), 0, 0, ms(10)},
		{"handle clipped to submit", ms(2), ms(10), ms(1), ms(6), ms(4)},
	}
	for _, c := range cases {
		if got := selfTime(c.s0, c.s1, c.h0, c.h1); got != c.wanted {
			t.Errorf("%s: self time %v, want %v", c.name, got, c.wanted)
		}
	}
}

func TestLagValidity(t *testing.T) {
	// A few late sends are tolerated; a median that drifted is not.
	lags := append(make([]time.Duration, 90), series(10)...)
	if !lagValid(lags, ms(10)) {
		t.Error("cell with ten late sends out of 100 marked invalid")
	}
	for i := range lags {
		lags[i] += ms(15)
	}
	if lagValid(lags, ms(10)) {
		t.Error("cell whose median send ran 15ms late marked valid")
	}
	if !backlogGrew(append(make([]int, 50), repeat(60, 50)...), 100) {
		t.Error("backlog rising from 0 to 60 of 100 not detected")
	}
	if backlogGrew(append(repeat(5, 90), repeat(30, 10)...), 100) {
		t.Error("a short burst was taken for a growing backlog")
	}
}

func repeat(v, n int) []int {
	xs := make([]int, n)
	for i := range xs {
		xs[i] = v
	}
	return xs
}

func TestMedian(t *testing.T) {
	if got := median([]float64{3, 1, 2}); got != 2 {
		t.Errorf("median odd = %v", got)
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("median even = %v", got)
	}
}

func TestTracedCountersAgree(t *testing.T) {
	var plain srv.RouterStats
	plain.Restarts, plain.Served, plain.Batches = 100, 1200, 100
	if v := agree(plain, plain); len(v) != 0 {
		t.Errorf("identical counters disagree: %v", v)
	}
	tr := plain
	tr.Restarts = 80 // 20% fewer: load decides how many attacks ran
	if v := agree(plain, tr); len(v) != 0 {
		t.Errorf("restarts within tolerance reported: %v", v)
	}
	tr.Restarts = 70
	if v := agree(plain, tr); len(v) != 1 {
		t.Errorf("30%% fewer restarts not reported: %v", v)
	}
	// A wrapper that hid BeginBatch/EndBatch would leave no batches.
	tr = plain
	tr.Batches = 0
	if v := agree(plain, tr); len(v) != 1 {
		t.Errorf("lost batching not reported: %v", v)
	}
}

// TestValidLeavesOutLaggedCells checks that figures come from the cells
// the generator kept to schedule in, and from every cell of the name only
// when it kept to schedule in none.
func TestValidLeavesOutLaggedCells(t *testing.T) {
	p := passResult{cells: []cellRun{
		{cell: cell{name: "warmup"}},
		{cell: cell{name: "over", rate: 1}, lagOK: true},
		{cell: cell{name: "over", rate: 2}},
		{cell: cell{name: "low", rate: 3}},
		{cell: cell{name: "low", rate: 4}},
	}}
	if got := p.valid("over"); len(got) != 1 || got[0].rate != 1 {
		t.Errorf("valid over cells = %v, want only the one on schedule", got)
	}
	if got := p.valid("low"); len(got) != 2 {
		t.Errorf("valid low cells = %v, want both when none kept to schedule", got)
	}
	if got := p.valid("high"); len(got) != 0 {
		t.Errorf("valid high cells = %v, want none", got)
	}
}
