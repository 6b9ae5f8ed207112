package main

import (
	"fmt"
	"math"
	"math/rand/v2"
	"runtime"
	"sort"
	"time"
)

// workload is one traffic mix. Every workload runs under benchPolicy on
// the same hosts; they differ only in traffic.
type workload struct {
	name      string
	replicas  int     // controllers; 2 puts cluster.Routers joined by a TCPLink in front
	rate      float64 // fixed offered rate, decisions/s
	failLimit float64 // fail ratio allowed at max_rate_dps
	warm      func(b *bench) []event
	draw      func(b *bench) func(*rand.Rand) event
}

// Change-stream sizes. Every workload runs the same fact changes as a
// probe after its timed phase, with no traffic: the single changes over
// probeSpan, then the storms one by one.
const (
	changeUnits  = 1000
	changeStorms = 10
	stormFlows   = 100
	probeSpan    = 2 * time.Second
	probeStorms  = 50 * time.Millisecond // between probe storms

	warmWindow = 64 // closed-loop warm-up: unanswered packet-ins at most
	// missWarm takes server1's daemon past its answered-facts memo cap
	// (daemon.DefaultAnsweredCap, 4096) in warm-up, so miss times the
	// steady state past the cap from its first packet-in.
	missWarm = 5120
	fastWarm = 2048

	trialSpan = 1500 * time.Millisecond // one max-rate trial
	// p99Limit is every workload's setup p99 limit for max_rate_dps. It is
	// set well above the few-millisecond scheduling stalls of a shared VM,
	// so that the search finds the knee where queueing makes p99 climb
	// steeply with rate, not the size of a stall.
	p99Limit = 20 * time.Millisecond
)

var workloads = map[string]*workload{
	"miss": {
		name: "miss", replicas: 1, rate: 1500, failLimit: 0.9,
		warm: func(b *bench) []event { return b.missFlows(missWarm) },
		draw: func(b *bench) func(*rand.Rand) event {
			return func(r *rand.Rand) event { return missEvent(r, &b.ports, b.hosts) }
		},
	},
	"fastpath": {
		name: "fastpath", replicas: 1, rate: 9000, failLimit: 0.01,
		warm: func(b *bench) []event { return b.fastWarm(1) },
		draw: fastpathDraw,
	},
	"forward": {
		name: "forward", replicas: 2, rate: 4000, failLimit: 0.01,
		// Several members per dst-key class, so that each replica decides
		// (and widens) every class in warm-up.
		warm: func(b *bench) []event { return b.fastWarm(8) },
		draw: fastpathDraw,
	},
}

// bench is one run of one workload: its inputs, and the rig measuring them.
type bench struct {
	w       *workload
	seed    uint64
	hosts   []hostSpec
	ports   portAlloc
	warmEvs []event
	timed   []event
	units   []unit
	r       *rig
	rv      *revTracker
}

func newBench(w *workload, seed uint64, span time.Duration) *bench {
	b := &bench{w: w, seed: seed, hosts: worldHosts()}
	b.warmEvs = w.warm(b)
	rng := newRand(seed, streamUnits)
	b.units = units(rng, &b.ports, b.hosts, changeUnits, float64(changeUnits)/probeSpan.Seconds(), changeStorms, stormFlows, probeSpan+probeStorms, probeStorms)
	b.timed = schedule(newRand(seed, streamTimed), w.rate, span, w.draw(b))
	return b
}

// fastWarm decides the flows fastpath traffic repeats, and perClass
// members of each of the two dst-key classes: server1's httpd (pass) and
// server2's sshd (deny).
func (b *bench) fastWarm(perClass int) []event {
	evs := b.missFlows(fastWarm)
	for _, dst := range []int{server1, server2} {
		for i := 0; i < perClass; i++ {
			c := firstClient + i%numClients
			five := tcpFlow(b.hosts[c].ip, b.hosts[dst].ip, b.ports.take(c), portDst)
			evs = append(evs, event{five: five, src: c, dst: dst, user: userStaff, want: expected(userStaff, dst, portDst)})
		}
	}
	return evs
}

func fastpathDraw(b *bench) func(*rand.Rand) event {
	decided := b.warmEvs[:fastWarm]
	return func(r *rand.Rand) event { return fastpathEvent(r, &b.ports, b.hosts, decided) }
}

func (b *bench) missFlows(n int) []event {
	rng := newRand(b.seed, streamWarm)
	evs := make([]event, n)
	for i := range evs {
		evs[i] = missEvent(rng, &b.ports, b.hosts)
	}
	return evs
}

// setup builds the rig, registers every flow known up front, connects the
// switch, installs the change units' flows and warms the caches, then
// collects garbage so each timed phase starts from the same heap.
func (b *bench) setup(tr *tracer) (time.Duration, error) {
	start := time.Now()
	all := append(append(append([]event(nil), b.warmEvs...), unitEvents(b.units, b.hosts)...), b.timed...)
	r, err := newRig(b.hosts, all, b.units, b.w.replicas, tr)
	if err != nil {
		return 0, err
	}
	b.r = r
	b.rv = newRevTracker(b.units)
	r.chk.setTracker(b.rv)
	warm := append(unitEvents(b.units, b.hosts), b.warmEvs...)
	for round := 0; round < 3 && len(warm) > 0; round++ {
		if _, err := b.closedPhase(warm); err != nil {
			return 0, err
		}
		warm = b.unitsNotInstalled()
	}
	if len(warm) > 0 {
		return 0, fmt.Errorf("%d change-unit flows never installed", len(warm))
	}
	runtime.GC()
	return time.Since(start), nil
}

// unitsNotInstalled returns the warm-up events of unit flows that are not
// installed yet (their decision was voided).
func (b *bench) unitsNotInstalled() []event {
	chk := b.r.chk
	chk.mu.Lock()
	defer chk.mu.Unlock()
	var evs []event
	for ui, u := range b.units {
		for _, f := range u.flows {
			if !b.rv.inst[f] {
				evs = append(evs, event{five: f, src: u.host, dst: server2, user: ui, want: wantPass})
			}
		}
	}
	return evs
}

func (b *bench) teardown() {
	if b.r != nil {
		b.r.close()
		b.r = nil
	}
}

// phaseResult is one drained phase.
type phaseResult struct {
	sent int
	t    tally
	lat  []int64 // sorted setup latencies of the correct decisions, ns
	// Per correct decision, in send order: buffer ID, write time and
	// setup latency.
	bufs       []uint32
	sentNS     []int64
	lat2       []int64
	send       sendStats
	reconciled bool
}

// ctlCounts are the controller counters the checker reconciles with.
type ctlCounts struct{ packetIns, allowed, denied, voided int64 }

func (b *bench) counts() ctlCounts {
	r := b.r
	return ctlCounts{r.count("packet_ins"), r.count("flows_allowed"), r.count("flows_denied"), r.count("revocations_inflight")}
}

func (a ctlCounts) sub(o ctlCounts) ctlCounts {
	return ctlCounts{a.packetIns - o.packetIns, a.allowed - o.allowed, a.denied - o.denied, a.voided - o.voided}
}

func (b *bench) closedPhase(evs []event) (phaseResult, error) {
	p := b.r.conns[0].prepare(evs, b.hosts)
	before := b.counts()
	if err := b.r.conns[0].sendClosed(p, warmWindow); err != nil {
		return phaseResult{}, err
	}
	return b.drain(p, before, sendStats{}), nil
}

func (b *bench) openPhase(evs []event) (phaseResult, error) {
	p := b.r.conns[0].prepare(evs, b.hosts)
	before := b.counts()
	st, err := b.r.conns[0].sendOpen(p)
	if err != nil {
		return phaseResult{}, err
	}
	return b.drain(p, before, st), nil
}

// drain waits until every packet-in of the phase is accounted for and the
// checker's tallies reconcile with the controller's counters
// (flows_allowed + flows_denied + revocations_inflight = packet_ins), or
// until the drain deadline, then closes the phase.
func (b *bench) drain(p *prepared, before ctlCounts, st sendStats) phaseResult {
	chk := b.r.chk
	n := int64(len(p.ph.evs))
	var d ctlCounts
	ok := false
	for deadline := time.Now().Add(10 * time.Second); time.Now().Before(deadline); time.Sleep(time.Millisecond) {
		d = b.counts().sub(before)
		acked, _, relOnly, t := chk.status(p.ph)
		if acked == n && d.packetIns == n && d.allowed == t.pass+t.wrongPass && d.denied == t.deny+t.wrongDeny && d.voided == relOnly {
			ok = true
			break
		}
	}
	t, lat := chk.finish(p.ph)
	res := phaseResult{sent: int(n), t: t, send: st, reconciled: ok}
	if ok && t.void != d.voided {
		res.reconciled = false
	}
	for i := range p.ph.st {
		s := &p.ph.st[i]
		if s.out == outPass || s.out == outDeny {
			res.bufs = append(res.bufs, p.ph.base+uint32(i))
			res.sentNS = append(res.sentNS, p.ph.sentAt[i])
			res.lat2 = append(res.lat2, s.doneNS-p.ph.sentAt[i])
		}
	}
	res.lat = sortedCopy(lat)
	return res
}

// changeStream fires the units' fact changes at their due offsets from
// start and returns when the last has fired.
func (b *bench) changeStream(start time.Time) {
	for ui := range b.units {
		u := &b.units[ui]
		if d := time.Until(start.Add(u.at)); d > 0 {
			time.Sleep(d)
		}
		b.rv.changeAt[ui].Store(nowNS())
		h := b.r.hosts[u.host].h
		switch u.kind {
		case changeExit:
			h.Kill(b.r.unitPID[ui])
		case changeLogout, changeStorm:
			h.Logout(u.user)
		case changeGroup:
			h.SetUserGroups(u.user, "guests")
		}
	}
}

// revResult summarises a change stream.
type revResult struct {
	lat    []int64       // per single change, ns, in change order
	storms []int64       // per storm, ns
	failed int           // changes whose flows were not all deleted, or were deleted early
	flows  int           // flows torn down by the changes that did not fail
	cpu    time.Duration // process CPU time from the first change to the last delete
}

// awaitRevocations waits until every unit's flows are deleted (or the
// deadline passes) and collects the latencies.
func (b *bench) awaitRevocations() revResult {
	chk := b.r.chk
	for deadline := time.Now().Add(10 * time.Second); time.Now().Before(deadline); time.Sleep(time.Millisecond) {
		chk.mu.Lock()
		left := 0
		for ui := range b.units {
			if b.rv.doneAt[ui] == 0 && !b.rv.early[ui] {
				left++
			}
		}
		chk.mu.Unlock()
		if left == 0 {
			break
		}
	}
	chk.mu.Lock()
	defer chk.mu.Unlock()
	var rr revResult
	for ui, u := range b.units {
		if b.rv.early[ui] || b.rv.doneAt[ui] == 0 {
			rr.failed++
			continue
		}
		rr.flows += len(u.flows)
		d := b.rv.doneAt[ui] - b.rv.changeAt[ui].Load()
		if u.kind == changeStorm {
			rr.storms = append(rr.storms, d)
		} else {
			rr.lat = append(rr.lat, d)
		}
	}
	return rr
}

// timedResult is the timed phase with its cost.
type timedResult struct {
	phaseResult
	cpu    time.Duration
	allocs uint64
	gcs    uint32
	heap   uint64
	rev    revResult
}

// timedPhase runs the workload's fixed-rate traffic, then the change
// stream as a probe with no traffic.
func (b *bench) timedPhase() (timedResult, error) {
	var tr timedResult
	ms0 := memStats()
	cpu0 := cpuTime()
	pr, err := b.openPhase(b.timed)
	if err != nil {
		return tr, err
	}
	tr.cpu = cpuTime() - cpu0
	ms1 := memStats()
	tr.allocs = ms1.Mallocs - ms0.Mallocs
	tr.gcs = ms1.NumGC - ms0.NumGC
	tr.phaseResult = pr
	runtime.GC()
	tr.heap = memStats().HeapInuse
	cpu1 := cpuTime()
	b.changeStream(time.Now())
	tr.rev = b.awaitRevocations()
	tr.rev.cpu = cpuTime() - cpu1
	return tr, nil
}

// trial is one max-rate step.
type trial struct {
	rate    float64
	p99     float64 // setup latency of the trial's correct decisions
	fail    float64 // packet-ins without a correct verdict ÷ sent
	lagEnd  float64 // how late the last packet-in left
	backlog int64   // packet-ins unanswered when the last one left
	margin  float64 // the largest ratio of a measure to its limit; > 1 fails
	wrong   int64   // wrong verdicts and timeouts
	sent    int
	// reconciled: the checker's tallies matched the controller's counters.
	reconciled bool
}

func (t trial) pass() bool { return t.margin <= 1 }

// overLimit is the margin of a trial that timed out or decided nothing
// correctly.
const overLimit = 100

// maxRate finds the highest offered rate the workload sustains: setup p99
// within its limit, no growing backlog (at the last send, at most
// p99Limit's worth of arrivals unanswered and the sender at most p99Limit
// late), no timeouts, and the fail ratio within its limit. Each trial's
// margin is the largest of those ratios to their limits. The search grows
// the rate by 1.5x from the fixed rate until a trial fails, then bisects
// the bracket three times. The answer is read from all the trials, not from
// the last bracket alone: it is where a nondecreasing fit of the log
// margins against rate crosses 1 (see crossing), so one noisy trial near
// the limit moves it only by its share of the fit.
func (b *bench) maxRate() (float64, []trial, error) {
	var trials []trial
	w := b.w
	limit := float64(p99Limit)
	run := func(rate float64) (trial, error) {
		evs := schedule(newRand(b.seed, streamSearch+uint64(len(trials))), rate, trialSpan, w.draw(b))
		if err := b.r.register(evs); err != nil {
			return trial{}, err
		}
		pr, err := b.openPhase(evs)
		if err != nil {
			return trial{}, err
		}
		t := trial{rate: rate, sent: pr.sent, wrong: pr.t.wrong() + pr.t.timeout, reconciled: pr.reconciled}
		t.p99 = quantile(pr.lat, 0.99)
		t.fail = float64(pr.sent-int(pr.t.correct())) / float64(pr.sent)
		if n := len(pr.send.lagNS); n > 0 {
			t.lagEnd = float64(pr.send.lagNS[n-1])
		}
		t.backlog = pr.send.backlogEnd
		t.margin = max(t.p99/limit, t.lagEnd/limit, float64(t.backlog)/(rate*p99Limit.Seconds()), t.fail/w.failLimit)
		if pr.t.timeout > 0 || math.IsNaN(t.p99) || t.margin > overLimit {
			t.margin = overLimit
		}
		trials = append(trials, t)
		return t, nil
	}
	lo, hi := 0.0, 0.0
	r := w.rate
	for i := 0; i < 6; i++ {
		t, err := run(r)
		if err != nil {
			return 0, trials, err
		}
		if t.pass() {
			lo = r
			if hi > 0 {
				break
			}
			r *= 1.5
		} else {
			hi = r
			if lo > 0 {
				break
			}
			r /= 1.5
		}
	}
	if lo > 0 && hi > 0 {
		for i := 0; i < 3; i++ {
			mid := (lo + hi) / 2
			t, err := run(mid)
			if err != nil {
				return 0, trials, err
			}
			if t.pass() {
				lo = mid
			} else {
				hi = mid
			}
		}
	}
	return crossing(trials), trials, nil
}

// crossing fits log margin against rate with a nondecreasing step function
// (pool-adjacent-violators: neighbouring trials that contradict the order
// are replaced by their mean) and returns the rate where the fit crosses
// log 1, interpolated linearly between the trials either side of it. With
// every fitted trial over its limits it returns 0; with none, the highest
// rate tried.
func crossing(trials []trial) float64 {
	ts := append([]trial(nil), trials...)
	sort.Slice(ts, func(i, j int) bool { return ts[i].rate < ts[j].rate })
	if len(ts) == 0 {
		return 0
	}
	type block struct {
		sum float64
		n   int
	}
	var blocks []block
	for _, t := range ts {
		blocks = append(blocks, block{math.Log(t.margin), 1})
		for k := len(blocks) - 1; k > 0 && blocks[k-1].sum/float64(blocks[k-1].n) >= blocks[k].sum/float64(blocks[k].n); k-- {
			blocks[k-1].sum += blocks[k].sum
			blocks[k-1].n += blocks[k].n
			blocks = blocks[:k]
		}
	}
	fit := make([]float64, 0, len(ts))
	for _, bl := range blocks {
		for i := 0; i < bl.n; i++ {
			fit = append(fit, bl.sum/float64(bl.n))
		}
	}
	for k := range fit {
		if fit[k] <= 0 {
			continue
		}
		if k == 0 {
			return 0
		}
		r1, r2, f1, f2 := ts[k-1].rate, ts[k].rate, fit[k-1], fit[k]
		return r1 + (r2-r1)*(0-f1)/(f2-f1)
	}
	return ts[len(ts)-1].rate
}
