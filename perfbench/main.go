// Command perfbench is focc's serving benchmark. It drives one workload — a
// traffic mix of one server model under one memory-error policy — through
// a two-shard srv.Router fleet with an open-loop Poisson generator in the
// same process, checks every reply against the reply a fresh instance
// gives, and prints its metrics:
//
//	perfbench --workload apache-fo --seed 1 --seconds 15 --trace 0
//
// With --trace 0 it prints the end-to-end metrics; with --trace 1 it runs
// an untraced and a traced pass of half the time each and prints the
// per-layer metrics, the tracing overhead among them. The last line of
// standard output is one JSON object:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// The command exits with code 1 when a reply or a counter breaks an
// invariant, and with code 2 when it cannot run: a bad flag, a fleet that
// cannot be built. A generator that falls behind its schedule makes a cell
// invalid, not the run.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"runtime"
	"strconv"
	"strings"
	"time"

	"focc/fo/srv"
)

// setupRuns is how many child processes time the fleet's set-up.
const setupRuns = 51

func main() {
	start := time.Now()
	name := flag.String("workload", "", "workload to run")
	seed := flag.Uint64("seed", 1, "seed of the arrival schedule")
	seconds := flag.Int("seconds", 30, "measuring time in seconds")
	trace := flag.Int("trace", 0, "1 for the traced run and per-layer metrics")
	setupOnly := flag.Bool("setup-only", false, "build the workload's fleet, report readiness and exit (used to time set-up)")
	flag.Parse()

	// The benchmark is sized for two CPUs: two serving workers, one
	// generator, and a runtime that may use two processors.
	runtime.GOMAXPROCS(min(workers, runtime.NumCPU()))
	w, err := findWorkload(*name)
	if err != nil {
		fail(err)
	}
	if *setupOnly {
		if err := setupChild(w, start); err != nil {
			fail(err)
		}
		return
	}
	if *seconds < 1 {
		fail(errors.New("--seconds must be at least 1"))
	}
	total := time.Duration(*seconds) * time.Second
	var out report
	if *trace == 1 {
		out, err = tracedRun(w, *seed, total)
	} else {
		out, err = plainRun(w, *seed, total)
	}
	if err != nil {
		fail(err)
	}
	out.print()
	if !out.Correct {
		os.Exit(1)
	}
}

func fail(err error) {
	fmt.Fprintln(os.Stderr, "perfbench:", err)
	os.Exit(2)
}

// report is the command's result line.
type report struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`

	list       []metric
	violations []string
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func newReport(p passResult, list []metric) report {
	r := report{
		Correct:    len(p.violations) == 0,
		Attempted:  p.attempted,
		Metrics:    map[string]metricValue{},
		list:       list,
		violations: p.violations,
	}
	if !r.Correct {
		r.Failed = p.attempted // a broken invariant voids the run
	}
	for _, m := range list {
		r.Metrics[m.name] = metricValue{m.value, m.unit}
	}
	return r
}

func (r report) print() {
	for _, v := range r.violations {
		fmt.Println("VIOLATION:", v)
	}
	for _, m := range r.list {
		fmt.Printf("%-34s %14.4f %s\n", m.name, m.value, m.unit)
	}
	line, err := json.Marshal(r)
	if err != nil {
		fail(err)
	}
	fmt.Println(string(line))
}

// plainRun measures the end-to-end metrics.
func plainRun(w workload, seed uint64, total time.Duration) (report, error) {
	setup, err := setupTime(w)
	if err != nil {
		return report{}, err
	}
	p, err := pass(w, seed, total, false)
	if err != nil {
		return report{}, err
	}
	return newReport(p, []metric{
		{"setup_s", setup.Seconds(), "s"},
		{"goodput_rps", goodput(p.valid("over")), "1/s"},
		{"rss_peak_mb", rssPeakMB(), "MB"},
	}), nil
}

// latencyMS is the median over rounds of a legitimate-latency percentile,
// in milliseconds, as legitMS gives it. The reported cells are sized to
// hold enough requests; a round whose sample cannot support the
// percentile is left out and named, and with none left it is 0.
func (d *client) latencyMS(rounds []cellRun, q float64) float64 {
	var vals []float64
	for _, run := range rounds {
		v, ok := d.legitMS(run.sum.legitLat, q)
		if !ok {
			fmt.Printf("# %s cell: %d legitimate requests cannot support p%g\n", run.name, len(run.sum.legitLat), q*100)
			continue
		}
		vals = append(vals, v)
	}
	return median(vals)
}

// goodput is the rate of correct legitimate answers within the limit.
func goodput(runs []cellRun) float64 {
	return float64(summarize(runs...).legitGood) / span(runs)
}

// span is the scheduled length of the cells, in seconds.
func span(runs []cellRun) float64 {
	var secs float64
	for _, run := range runs {
		secs += run.dur.Seconds()
	}
	return secs
}

// sustained is the completion rate — answers as expected within the limit,
// per second — at the highest rung of the ladder (the valid low cells, the
// valid high cells, then each ladder cell) that meets the workload's
// limits; 0 when none does. A ladder cell the generator fell behind in
// fails its rung.
func (d *client) sustained(p passResult) float64 {
	rungs := [][]cellRun{p.valid("low"), p.valid("high")}
	for _, run := range p.of("ladder") {
		rungs = append(rungs, []cellRun{run})
	}
	rate := 0.0
	ok := false
	for _, rung := range rungs {
		var why string
		ok, why = d.sustains(rung)
		fmt.Printf("# rung %7.0f req/s  sustained=%-5v %s\n", rung[0].rate, ok, why)
		if ok {
			rate = float64(summarize(rung...).good) / span(rung)
		}
	}
	if ok {
		fmt.Println("# the top rung was sustained: the ladder no longer brackets the capacity, so sustained_rps is capped by it")
	}
	return rate
}

// tracedRun measures the per-layer metrics: an untraced pass and a traced
// pass of the same seed, half the time each.
func tracedRun(w workload, seed uint64, total time.Duration) (report, error) {
	compile, lower, err := frontEnd(w)
	if err != nil {
		return report{}, err
	}
	costs, err := sequential(w)
	if err != nil {
		return report{}, err
	}
	serveAllocs, err := servingAllocs(w, costs)
	if err != nil {
		return report{}, err
	}
	plain, err := pass(w, seed, total/2, false)
	if err != nil {
		return report{}, err
	}
	tr, err := pass(w, seed, total/2, true)
	if err != nil {
		return report{}, err
	}
	tr.violations = append(tr.violations, plain.violations...)
	tr.violations = append(tr.violations, agree(plain.stats, tr.stats)...)
	fmt.Printf("# traced/untraced pass: restarts %d/%d, rewound %d/%d, mean batch size %.4g/%.4g\n",
		tr.stats.Restarts, plain.stats.Restarts, tr.stats.Rewound, plain.stats.Rewound, batchSize(tr.stats), batchSize(plain.stats))
	tr.attempted += plain.attempted
	return newReport(tr, layerMetrics(w, &client{w: w}, tr, plain, compile, lower, costs, serveAllocs)), nil
}

// setupTime is the median over setupRuns child processes of each one's
// set-up: the time from entering main to every shard of the workload's
// fleet being ready. It covers compiling the server's C source, lowering
// it and filling the pool, as a server's start-up does. The child times
// itself, so the noise of fork, exec and loading the binary stays out.
func setupTime(w workload) (time.Duration, error) {
	exe, err := os.Executable()
	if err != nil {
		return 0, err
	}
	times := make([]float64, setupRuns)
	for i := range times {
		cmd := exec.Command(exe, "--workload", w.name, "--setup-only")
		cmd.Stderr = os.Stderr
		out, err := cmd.Output()
		if err != nil {
			return 0, fmt.Errorf("set-up child: %w", err)
		}
		f := strings.Fields(string(out))
		var ns int64
		if len(f) == 2 && f[0] == "ready" {
			ns, err = strconv.ParseInt(f[1], 10, 64)
		}
		if len(f) != 2 || f[0] != "ready" || err != nil || ns <= 0 {
			return 0, fmt.Errorf("set-up child answered %q", out)
		}
		times[i] = time.Duration(ns).Seconds()
	}
	return time.Duration(median(times) * float64(time.Second)), nil
}

// setupChild builds the workload's fleet, reports the nanoseconds since
// start when every shard is ready, and closes the fleet again.
func setupChild(w workload, start time.Time) error {
	server, err := srv.New(w.server)
	if err != nil {
		return err
	}
	rt, err := srv.NewRouter(server, w.mode, w.options...)
	if err != nil {
		return err
	}
	fmt.Println("ready", time.Since(start).Nanoseconds())
	rt.Close()
	return nil
}

// rssPeakMB is the process's peak resident set size (VmHWM) in MiB.
func rssPeakMB() float64 {
	data, err := os.ReadFile("/proc/self/status")
	if err != nil {
		fail(fmt.Errorf("peak RSS: %w", err))
	}
	for _, line := range strings.Split(string(data), "\n") {
		if f := strings.Fields(line); len(f) >= 2 && f[0] == "VmHWM:" {
			kb, err := strconv.ParseFloat(f[1], 64)
			if err != nil {
				fail(fmt.Errorf("peak RSS: %w", err))
			}
			return kb / 1024
		}
	}
	fail(errors.New("peak RSS: no VmHWM in /proc/self/status"))
	return 0
}
