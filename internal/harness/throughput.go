package harness

import (
	"fmt"
	"time"

	"focc/fo"
	"focc/internal/serve"
	"focc/internal/servers"
)

// ThroughputResult is one row of the §4.3.2 throughput experiment.
type ThroughputResult struct {
	Mode       fo.Mode
	LegitDone  int
	Attacks    int
	Restarts   int
	Elapsed    time.Duration
	Throughput float64 // legitimate requests per second
}

// AttackThroughput measures legitimate-request throughput while the server
// is being flooded with attack requests: between consecutive legitimate
// fetches, attacksPerLegit attack requests arrive (the paper used several
// machines to load the server with attack requests while one client
// repeatedly fetched the project home page).
//
// The requests run on a one-worker serve.Engine — the same supervisor that
// serves traffic — with spares warm spares, so a child killed by an attack
// is replaced at real instance-creation cost, which is exactly the
// overhead the paper attributes the Standard/BoundsCheck throughput loss
// to (§4.3.2). The restart policy is Apache's: every dead child is
// replaced at once, with no breaker and a backoff too short to measure.
func AttackThroughput(srv servers.Server, mode fo.Mode, spares, legitN, attacksPerLegit int) (ThroughputResult, error) {
	eng, err := serve.New(srv, mode,
		serve.WithPoolSize(1),
		serve.WithWarmSpares(spares),
		serve.WithBackoff(time.Nanosecond, time.Nanosecond),
		serve.WithBreaker(0, 0))
	if err != nil {
		return ThroughputResult{}, err
	}
	defer eng.Close()
	legit := srv.LegitRequests()[0]
	attack := srv.AttackRequest()
	res := ThroughputResult{Mode: mode}
	start := time.Now()
	for i := 0; i < legitN; i++ {
		for a := 0; a < attacksPerLegit; a++ {
			if _, err := eng.Submit(nil, attack); err != nil {
				return res, err
			}
			res.Attacks++
		}
		resp, err := eng.Submit(nil, legit)
		if err != nil {
			return res, err
		}
		if resp.Crashed() {
			// A Standard-mode attack can leave the child corrupted but
			// alive, and the legit request then crashes it. It is lost
			// (the real client would retry); count it as not done.
			continue
		}
		res.LegitDone++
	}
	res.Elapsed = time.Since(start)
	eng.Close() // joins the worker: Stats is final
	res.Restarts = int(eng.Stats().Restarts)
	if res.Elapsed > 0 {
		res.Throughput = float64(res.LegitDone) / res.Elapsed.Seconds()
	}
	return res, nil
}

// FormatThroughput renders §4.3.2-style results with ratios relative to the
// FailureOblivious row (which the paper reports as roughly 5.7x the Bounds
// Check version and 4.8x the Standard version).
func FormatThroughput(rows []ThroughputResult) string {
	var foThroughput float64
	for _, r := range rows {
		if r.Mode == fo.FailureOblivious {
			foThroughput = r.Throughput
		}
	}
	out := fmt.Sprintf("%-18s %-12s %-10s %-12s %s\n",
		"Version", "Legit req/s", "Restarts", "Legit done", "FO speedup")
	for _, r := range rows {
		ratio := "1.0"
		if r.Throughput > 0 && foThroughput > 0 && r.Mode != fo.FailureOblivious {
			ratio = fmt.Sprintf("%.1f", foThroughput/r.Throughput)
		}
		out += fmt.Sprintf("%-18s %-12.1f %-10d %-12d %s\n",
			r.Mode, r.Throughput, r.Restarts, r.LegitDone, ratio)
	}
	return out
}
