package main

import (
	"testing"

	"identxx/internal/flow"
	"identxx/internal/netaddr"
	"identxx/internal/openflow"
)

// synthetic builds a phase of one event per verdict case and a checker fed
// by hand-made controller messages.
func synthetic(t *testing.T, wants ...verdict) (*checker, *phaseRun, []hostSpec) {
	t.Helper()
	hosts := worldHosts()
	var evs []event
	for i, w := range wants {
		c := firstClient + i%numClients
		evs = append(evs, event{
			five: tcpFlow(hosts[c].ip, hosts[server1].ip, netaddr.Port(20000+i), portBoth),
			src:  c, dst: server1, want: w,
		})
	}
	chk := newChecker(hosts)
	ph := newPhaseRun(evs, 100)
	chk.setPhase(ph)
	return chk, ph, hosts
}

func install(five flow.Five, buf uint32, actions []openflow.Action) openflow.Msg {
	return openflow.EncodeFlowMod(openflow.FlowMod{Match: flow.FiveMatch(five), Actions: actions, BufferID: buf}, 1)
}

func release(buf uint32) openflow.Msg {
	return openflow.EncodePacketOut(openflow.PacketOutMsg{BufferID: buf}, 1)
}

func TestCheckerClassifies(t *testing.T) {
	chk, ph, hosts := synthetic(t, wantPass, wantDeny, wantPass, wantDeny, wantPass, wantPass, wantPass)
	ev := ph.evs
	outDst := hosts[server1].port
	pass := func(i int, port uint16) {
		chk.observe(install(ev[i].five, 100+uint32(i), openflow.Output(port)), 10)
		chk.observe(install(ev[i].five.Reverse(), openflow.BufferNone, openflow.Output(hosts[ev[i].src].port)), 20)
	}
	deny := func(i int) {
		chk.observe(release(100+uint32(i)), 10)
		chk.observe(install(ev[i].five, openflow.BufferNone, openflow.Drop), 30)
	}
	pass(0, outDst)               // pass
	deny(1)                       // deny
	chk.observe(release(102), 10) // void: released, no entry
	pass(3, outDst)               // wrong: installed a pass for a denied flow
	deny(4)                       // wrong: denied a flow that should pass
	pass(5, hosts[server2].port)  // wrong: forwarded out the wrong port
	// event 6 gets no answer: timed out

	acked, _, relOnly, _ := chk.status(ph)
	if acked != 6 || relOnly != 1 {
		t.Fatalf("acked %d relOnly %d, want 6 and 1", acked, relOnly)
	}
	tl, lat := chk.finish(ph)
	want := tally{pass: 1, deny: 1, void: 1, wrongPass: 2, wrongDeny: 1, timeout: 1}
	if tl != want {
		t.Errorf("tally %+v, want %+v", tl, want)
	}
	outs := []outcome{outPass, outDeny, outVoid, outWrong, outWrong, outWrong, outTimeout}
	for i, o := range outs {
		if ph.st[i].out != o {
			t.Errorf("event %d: outcome %d, want %d", i, ph.st[i].out, o)
		}
	}
	if len(lat) != 2 || lat[0] != 20 || lat[1] != 30 {
		t.Errorf("latencies %v, want [20 30] (pass at its reverse entry, deny at its drop entry)", lat)
	}
	if chk.stray != 0 {
		t.Errorf("%d stray messages", chk.stray)
	}
}

func TestCheckerInterleavedDecisions(t *testing.T) {
	// Messages of concurrent decisions interleave on the channel; only the
	// order within one decision is fixed.
	chk, ph, hosts := synthetic(t, wantPass, wantPass, wantDeny)
	ev := ph.evs
	out := hosts[server1].port
	chk.observe(install(ev[0].five, 100, openflow.Output(out)), 1)
	chk.observe(release(102), 2)
	chk.observe(install(ev[1].five, 101, openflow.Output(out)), 3)
	chk.observe(install(ev[1].five.Reverse(), openflow.BufferNone, openflow.Output(hosts[ev[1].src].port)), 4)
	chk.observe(install(ev[2].five, openflow.BufferNone, openflow.Drop), 5)
	chk.observe(install(ev[0].five.Reverse(), openflow.BufferNone, openflow.Output(hosts[ev[0].src].port)), 6)
	tl, _ := chk.finish(ph)
	if tl != (tally{pass: 2, deny: 1}) {
		t.Errorf("tally %+v", tl)
	}
}

func TestCheckerCountsStrayMessages(t *testing.T) {
	chk, ph, _ := synthetic(t, wantPass)
	chk.observe(release(999), 1) // unknown buffer
	chk.observe(install(ph.evs[0].five.Reverse(), openflow.BufferNone, openflow.Output(1)), 2)
	if chk.stray != 2 {
		t.Errorf("stray %d, want 2", chk.stray)
	}
}

func TestRevTracker(t *testing.T) {
	hosts := worldHosts()
	var ports portAlloc
	us := units(newRand(1, 1), &ports, hosts, 2, 10, 0, 0, 0, 0)
	rv := newRevTracker(us)
	f := us[0].flows[0]
	rv.observeDelete(f, 5) // before its change: early
	if !rv.early[0] {
		t.Error("a delete before the change must mark the unit early")
	}
	rv.changeAt[1].Store(100)
	for _, g := range us[1].flows {
		rv.observeDelete(g, 150)
		rv.observeDelete(g.Reverse(), 170)
		rv.observeDelete(g.Reverse(), 900) // duplicates do not count twice
	}
	if rv.doneAt[1] != 170 {
		t.Errorf("unit done at %d, want 170 (last direction of the last flow)", rv.doneAt[1])
	}
}

// A run is correct only if every phase reconciled, max-rate trials
// included, nothing failed, and no stray message arrived.
func TestRunOutcomeCountsEveryPhase(t *testing.T) {
	tp := timedResult{phaseResult: phaseResult{sent: 10, reconciled: true}}
	tp.rev.lat = make([]int64, 3)
	tp.rev.storms = make([]int64, 1)
	ok := []trial{{sent: 5, reconciled: true}, {sent: 7, reconciled: true}}
	if a, f, c := runOutcome([]timedResult{tp}, ok, 0); a != 26 || f != 0 || !c {
		t.Fatalf("clean run: attempted %d failed %d correct %v, want 26 0 true", a, f, c)
	}
	mismatch := append(append([]trial(nil), ok...), trial{sent: 5, reconciled: false})
	if _, f, c := runOutcome([]timedResult{tp}, mismatch, 0); f != 0 || c {
		t.Fatalf("trial mismatch: failed %d correct %v, want 0 false", f, c)
	}
	wrong := []trial{{sent: 5, reconciled: true, wrong: 2}}
	if _, f, c := runOutcome([]timedResult{tp}, wrong, 0); f != 2 || c {
		t.Fatalf("wrong verdicts in a trial: failed %d correct %v, want 2 false", f, c)
	}
	if _, _, c := runOutcome([]timedResult{tp}, ok, 1); c {
		t.Fatal("a stray message left the run correct")
	}
	broken := tp
	broken.rev.failed = 1
	if a, f, c := runOutcome([]timedResult{broken}, nil, 0); a != 15 || f != 1 || c {
		t.Fatalf("broken revocation: attempted %d failed %d correct %v, want 15 1 false", a, f, c)
	}
}
