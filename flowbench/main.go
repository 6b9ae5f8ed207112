// Command flowbench is identxx's end-to-end benchmark: a generated switch
// sends open-loop packet-ins over a real loopback TCP OpenFlow channel to a
// controller wired as cmd/identctl wires it, which queries real daemons
// over the query wire; every verdict the switch receives is checked. See
// README.md for the workloads and metrics.
//
//	flowbench --workload miss --seed 1 --seconds 10 --trace 0
//
// The last line of standard output is the result as one JSON object.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"runtime"
	"time"
)

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// setups is how many times a run builds the rig; setup_s is their median.
const setups = 5

func main() {
	wname := flag.String("workload", "", "workload: miss, fastpath or forward")
	seed := flag.Uint64("seed", 1, "input seed")
	seconds := flag.Int("seconds", 10, "length of the timed phase in seconds")
	traced := flag.Int("trace", 0, "1: wrap the layer seams and report per-layer metrics")
	flag.Parse()
	w, ok := workloads[*wname]
	if !ok || *seconds <= 0 || (*traced != 0 && *traced != 1) {
		fmt.Fprintln(os.Stderr, "usage: flowbench --workload miss|fastpath|forward --seed N --seconds S --trace 0|1")
		os.Exit(2)
	}
	logf := func(format string, args ...any) { fmt.Fprintf(os.Stderr, "flowbench: "+format+"\n", args...) }
	span := time.Duration(*seconds) * time.Second
	var res result
	var err error
	if *traced == 1 {
		res, err = runTraced(w, *seed, span, logf)
	} else {
		res, err = runPlain(w, *seed, span, logf)
	}
	if err != nil {
		logf("%s: %v", w.name, err)
		os.Exit(1)
	}
	out, err := json.Marshal(res)
	if err != nil {
		logf("%v", err)
		os.Exit(1)
	}
	fmt.Println(string(out))
}

// printMeta records the conditions of the run on the line before the
// result.
func printMeta(b *bench, seed uint64) {
	w := b.w
	commit := os.Getenv("FLOWBENCH_COMMIT")
	if commit == "" {
		commit = "unknown"
	}
	meta := map[string]any{
		"workload":   w.name,
		"seed":       seed,
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"nproc":      runtime.NumCPU(),
		"shards":     b.r.reps[0].ctl.Shards(),
		"go":         runtime.Version(),
		"commit":     commit,
		"transport":  "loopback TCP",
		"rate_dps":   w.rate,
		"p99_limit":  p99Limit.String(),
		"fail_limit": w.failLimit,
	}
	out, _ := json.Marshal(map[string]any{"meta": meta})
	fmt.Println(string(out))
}

func us(ns float64) float64 { return ns / 1e3 }
func ms(ns float64) float64 { return ns / 1e6 }

// runPlain is a run with no wrappers: it builds the rig setups times and
// measures the timed phase and the change stream on the last build.
func runPlain(w *workload, seed uint64, span time.Duration, logf func(string, ...any)) (result, error) {
	start := time.Now()
	b := newBench(w, seed, span)
	var setupS []float64
	for i := 0; i < setups; i++ {
		d, err := b.setup(nil)
		if err != nil {
			b.teardown()
			return result{}, fmt.Errorf("setup: %w", err)
		}
		setupS = append(setupS, d.Seconds())
		if i < setups-1 {
			b.teardown()
		}
	}
	defer b.teardown()
	tp, err := b.timedPhase()
	if err != nil {
		return result{}, err
	}
	printMeta(b, seed)
	stray := b.r.chk.strays()
	logTimed(logf, b, tp, stray)
	logf("setups %.3fs; time: setups+timed+changes %.1fs", setupS, time.Since(start).Seconds())

	res := result{Metrics: map[string]metric{}}
	res.Attempted, res.Failed, res.Correct = runOutcome([]timedResult{tp}, nil, stray)
	correct := float64(tp.t.correct())
	m := res.Metrics
	m["ok_ratio"] = metric{correct / float64(tp.sent), "ratio"}
	m["cpu_us_per_decision"] = metric{us(float64(tp.cpu)) / correct, "us"}
	m["allocs_per_decision"] = metric{float64(tp.allocs) / correct, "count"}
	m["heap_inuse_mb"] = metric{float64(tp.heap) / (1 << 20), "MiB"}
	m["revoke_cpu_us_per_flow"] = metric{us(float64(tp.rev.cpu)) / float64(tp.rev.flows), "us"}
	m["setup_s"] = metric{median(setupS), "s"}
	if !finite(m, logf) {
		res.Correct = false
	}
	return res, nil
}

// logTimed logs a timed phase's outcomes, sample counts and latencies.
func logTimed(logf func(string, ...any), b *bench, tp timedResult, stray int64) {
	revLat := sortedCopy(tp.rev.lat)
	logf("timed: sent %d pass %d deny %d void %d wrong %d timeout %d reconciled %v lag_p99 %.0fus gcs %d; changes %d failed %d flows %d; stray %d",
		tp.sent, tp.t.pass, tp.t.deny, tp.t.void, tp.t.wrong(), tp.t.timeout, tp.reconciled,
		us(quantile(sortedCopy(tp.send.lagNS), 0.99)), tp.gcs, len(b.units), tp.rev.failed, tp.rev.flows, stray)
	logf("latency (samples: setup %d, revoke %d, storms %d): setup p50 %.0fus p90 %.0fus p99 %.0fus; revoke p50 %.3fms p99 %.3fms; storm %.2fms",
		len(tp.lat), len(tp.rev.lat), len(tp.rev.storms),
		us(quantile(tp.lat, 0.5)), us(quantile(tp.lat, 0.9)), us(quantile(tp.lat, 0.99)),
		ms(quantile(revLat, 0.5)), ms(quantile(revLat, 0.99)), stormMS(tp.rev))
}

// stormMS is the median storm teardown time of a change stream, in ms.
func stormMS(rv revResult) float64 {
	v := make([]float64, len(rv.storms))
	for i, d := range rv.storms {
		v[i] = ms(float64(d))
	}
	return median(v)
}

// runOutcome totals a run's checks. It counts every packet-in and fact
// change attempted, and the wrong verdicts, timeouts and broken
// revocations among them. The run is correct when none failed, every phase
// reconciled with the controller's counters (max-rate trials included),
// and the switch saw no stray message over the whole run.
func runOutcome(timed []timedResult, trials []trial, stray int64) (attempted, failed int64, correct bool) {
	correct = stray == 0
	for _, tp := range timed {
		attempted += int64(tp.sent + len(tp.rev.lat) + len(tp.rev.storms) + tp.rev.failed)
		failed += tp.t.wrong() + tp.t.timeout + int64(tp.rev.failed)
		correct = correct && tp.reconciled
	}
	for _, t := range trials {
		attempted += int64(t.sent)
		failed += t.wrong
		correct = correct && t.reconciled
	}
	return attempted, failed, correct && failed == 0
}

// finite zeroes and logs every metric that has no value (NaN or Inf: no
// samples) and reports whether all had one.
func finite(m map[string]metric, logf func(string, ...any)) bool {
	ok := true
	for k, v := range m {
		if math.IsNaN(v.Value) || math.IsInf(v.Value, 0) {
			logf("metric %s has no value", k)
			m[k] = metric{0, v.Unit}
			ok = false
		}
	}
	return ok
}

// runTraced measures the timed phase and the change stream once on an
// unwrapped rig, for the unbounded end-to-end figures and the tracing
// overhead, and searches that rig's highest sustained rate. It then
// measures them again on a rig whose layer seams are wrapped, and reports
// the per-layer metrics of the wrapped rig from the start of its setup to
// the end of its change stream (the counters of a new rig start at zero).
func runTraced(w *workload, seed uint64, span time.Duration, logf func(string, ...any)) (result, error) {
	b := newBench(w, seed, span)
	if _, err := b.setup(nil); err != nil {
		b.teardown()
		return result{}, fmt.Errorf("setup: %w", err)
	}
	plain, err := b.timedPhase()
	if err != nil {
		b.teardown()
		return result{}, err
	}
	rate, trials, err := b.maxRate()
	stray := b.r.chk.strays()
	b.teardown()
	if err != nil {
		return result{}, err
	}
	for _, t := range trials {
		logf("trial %.0f/s: n %d p99 %.0fus fail %.4f lag_end %.0fus backlog_end %d margin %.3f reconciled %v pass=%v",
			t.rate, t.sent, us(t.p99), t.fail, us(t.lagEnd), t.backlog, t.margin, t.reconciled, t.pass())
	}
	logTimed(logf, b, plain, stray)

	b = newBench(w, seed, span)
	tr := newTracer()
	stop := sampleRuntime()
	if _, err := b.setup(tr); err != nil {
		stop()
		b.teardown()
		return result{}, fmt.Errorf("traced setup: %w", err)
	}
	defer b.teardown()
	tp, err := b.timedPhase()
	rt := stop()
	if err != nil {
		return result{}, err
	}
	end := snapshotLayers(b.r)
	stray += b.r.chk.strays()
	printMeta(b, seed)
	logf("traced timed: sent %d pass %d deny %d void %d wrong %d timeout %d reconciled %v; stray %d",
		tp.sent, tp.t.pass, tp.t.deny, tp.t.void, tp.t.wrong(), tp.t.timeout, tp.reconciled, stray)

	res := result{Metrics: map[string]metric{}}
	res.Attempted, res.Failed, res.Correct = runOutcome([]timedResult{plain, tp}, trials, stray)
	res.Metrics["e2e.max_rate_dps"] = metric{rate, "1/s"}
	layerMetrics(res.Metrics, tr, end, rt, tp, plain)
	finite(res.Metrics, logf)
	return res, nil
}

// layerCounts is every layer counter the traced run reads.
type layerCounts struct {
	ctl, eng, pool map[string]int64
	cluster        map[string]int64
	daemonQueries  int64
	daemonUpdates  int64
	memoEvictions  int64
}

func snapshotLayers(r *rig) layerCounts {
	lc := layerCounts{ctl: map[string]int64{}, eng: map[string]int64{}, pool: map[string]int64{}, cluster: map[string]int64{}}
	add := func(dst, src map[string]int64) {
		for k, v := range src {
			dst[k] += v
		}
	}
	for _, rep := range r.reps {
		add(lc.ctl, rep.ctl.Counters.Snapshot())
		add(lc.eng, rep.eng.Counters.Snapshot())
		add(lc.pool, rep.pool.Counters.Snapshot())
		if rep.rt != nil {
			add(lc.cluster, rep.rt.Counters.Snapshot())
		}
	}
	for _, sh := range r.hosts {
		lc.daemonQueries += sh.d.Counters.Get("daemon_queries_answered")
		lc.daemonUpdates += sh.d.Counters.Get("daemon_updates_pushed")
		_, ev := sh.d.AnsweredStats()
		lc.memoEvictions += ev
	}
	return lc
}

type runtimeStats struct {
	gcCycles   uint32
	gcPauseNS  uint64
	goroutines int
}

// sampleRuntime starts sampling the goroutine count; stop ends it and
// returns the GC cycles and pause time since the start and the most
// goroutines seen.
func sampleRuntime() (stop func() runtimeStats) {
	ms0 := memStats()
	quit := make(chan struct{})
	done := make(chan int)
	go func() {
		maxG := runtime.NumGoroutine()
		tick := time.NewTicker(5 * time.Millisecond)
		defer tick.Stop()
		for {
			select {
			case <-tick.C:
				if g := runtime.NumGoroutine(); g > maxG {
					maxG = g
				}
			case <-quit:
				done <- maxG
				return
			}
		}
	}()
	return func() runtimeStats {
		close(quit)
		g := <-done
		ms1 := memStats()
		return runtimeStats{ms1.NumGC - ms0.NumGC, ms1.PauseTotalNs - ms0.PauseTotalNs, g}
	}
}
