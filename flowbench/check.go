package main

import (
	"sync"
	"sync/atomic"

	"identxx/internal/flow"
	"identxx/internal/netaddr"
	"identxx/internal/openflow"
)

// The outcome checker runs on the switch side: it classifies every
// packet-in of a phase by its buffer ID from the messages the controller
// writes back. A pass is a forward entry that releases the buffer through
// the destination's port, followed by the reverse entry; a deny is a
// buffer release followed by a drop entry; a void is a buffer release with
// no entry (the controller withdrew an in-flight decision a revocation
// raced); anything contradicting the verdict the generated facts imply is
// wrong; a packet-in with no answer by the end of the drain timed out.

type outcome uint8

const (
	outNone outcome = iota
	outPass
	outDeny
	outVoid
	outWrong
	outTimeout
)

// evState is the checker's view of one packet-in.
type evState struct {
	acked    bool // the one message carrying the buffer ID arrived
	fwd      bool // forward entry seen
	released bool // buffer released without an entry
	out      outcome
	doneNS   int64 // arrival of the verdict's last message
}

// tally counts outcomes. wrongPass/wrongDeny split wrong verdicts by what
// the controller installed, for reconciliation with its counters.
type tally struct {
	pass, deny, void, wrongPass, wrongDeny, timeout int64
}

func (t tally) correct() int64 { return t.pass + t.deny }
func (t tally) wrong() int64   { return t.wrongPass + t.wrongDeny }

// phaseRun is one phase's events and their checker state.
type phaseRun struct {
	evs    []event
	base   uint32  // buffer ID of evs[0]
	start  int64   // phase start, ns on the run clock
	sentAt []int64 // when each packet-in was written; set by the sender
	acked  atomic.Int64

	st        []evState
	awaitRev  map[flow.Five][]int32 // forward tuple -> events awaiting their reverse entry
	awaitDrop map[flow.Five][]int32 // tuple -> released events awaiting a drop entry
	t         tally
	resolved  int64 // events with an outcome
	relOnly   int64 // released, no outcome yet
}

func newPhaseRun(evs []event, base uint32) *phaseRun {
	return &phaseRun{
		evs:       evs,
		base:      base,
		sentAt:    make([]int64, len(evs)),
		st:        make([]evState, len(evs)),
		awaitRev:  make(map[flow.Five][]int32),
		awaitDrop: make(map[flow.Five][]int32),
	}
}

// checker consumes the controller's messages on the switch side.
type checker struct {
	outPort map[netaddr.IP]uint16 // host IP -> its switch port

	mu      sync.Mutex
	ph      *phaseRun
	rv      *revTracker
	deletes int64
	stray   int64 // messages matching no outstanding packet-in

	wake chan struct{} // signalled on every ack (closed-loop sender)
}

func newChecker(hosts []hostSpec) *checker {
	c := &checker{outPort: make(map[netaddr.IP]uint16), wake: make(chan struct{}, 1)}
	for _, h := range hosts {
		c.outPort[h.ip] = h.port
	}
	return c
}

func (c *checker) setPhase(ph *phaseRun) {
	c.mu.Lock()
	c.ph = ph
	c.mu.Unlock()
}

func (c *checker) setTracker(rv *revTracker) {
	c.mu.Lock()
	c.rv = rv
	c.mu.Unlock()
}

func pop(m map[flow.Five][]int32, k flow.Five) (int32, bool) {
	q := m[k]
	if len(q) == 0 {
		return 0, false
	}
	i := q[0]
	if len(q) == 1 {
		delete(m, k)
	} else {
		m[k] = q[1:]
	}
	return i, true
}

// event returns the phase index for a buffer ID, or -1.
func (ph *phaseRun) index(buf uint32) int {
	if ph == nil || buf < ph.base || int(buf-ph.base) >= len(ph.evs) {
		return -1
	}
	return int(buf - ph.base)
}

func (c *checker) ack(ph *phaseRun, st *evState) {
	if st.acked {
		return
	}
	st.acked = true
	ph.acked.Add(1)
	select {
	case c.wake <- struct{}{}:
	default:
	}
}

func (ph *phaseRun) resolve(i int, out outcome, now int64) {
	st := &ph.st[i]
	if st.released {
		ph.relOnly--
	}
	st.out = out
	st.doneNS = now
	ph.resolved++
	switch out {
	case outPass:
		ph.t.pass++
	case outDeny:
		ph.t.deny++
	}
}

// observe classifies one controller message arriving at now.
func (c *checker) observe(m openflow.Msg, now int64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	ph := c.ph
	switch m.Type {
	case openflow.MsgFlowMod:
		mod, err := openflow.DecodeFlowMod(m)
		if err != nil {
			c.stray++
			return
		}
		if mod.Delete {
			c.deletes++
			if c.rv != nil {
				c.rv.observeDelete(mod.Match.Tuple.Five(), now)
			}
			return
		}
		c.observeInstall(ph, mod, now)
	case openflow.MsgPacketOut:
		po, err := openflow.DecodePacketOut(m)
		if err != nil || po.BufferID == openflow.BufferNone || len(po.Frame) != 0 {
			c.stray++
			return
		}
		i := ph.index(po.BufferID)
		if i < 0 {
			c.stray++
			return
		}
		st := &ph.st[i]
		c.ack(ph, st)
		if st.out != outNone || st.fwd || st.released {
			return
		}
		st.released = true
		ph.relOnly++
		ph.awaitDrop[ph.evs[i].five] = append(ph.awaitDrop[ph.evs[i].five], int32(i))
	}
}

func (c *checker) observeInstall(ph *phaseRun, mod openflow.FlowMod, now int64) {
	five := mod.Match.Tuple.Five()
	drop := len(mod.Actions) == 1 && mod.Actions[0].Type == openflow.ActionDrop
	out := -1
	if len(mod.Actions) == 1 && mod.Actions[0].Type == openflow.ActionOutput {
		out = int(mod.Actions[0].Port)
	}
	if mod.BufferID != openflow.BufferNone {
		// Forward entry: releases the buffered packet through its actions.
		i := ph.index(mod.BufferID)
		if i < 0 {
			c.stray++
			return
		}
		st := &ph.st[i]
		c.ack(ph, st)
		ev := &ph.evs[i]
		st.fwd = true
		ph.awaitRev[five] = append(ph.awaitRev[five], int32(i))
		if five != ev.five || ev.want != wantPass || out != int(c.outPort[ev.five.DstIP]) {
			st.out = outWrong
			ph.t.wrongPass++
			ph.resolved++
			st.doneNS = now
		}
		return
	}
	if drop {
		i, ok := pop(ph.awaitDrop, five)
		if !ok {
			c.stray++
			return
		}
		if ph.evs[i].want == wantDeny {
			ph.resolve(int(i), outDeny, now)
		} else {
			ph.relOnly--
			ph.st[i].released = false
			ph.st[i].out = outWrong
			ph.st[i].doneNS = now
			ph.t.wrongDeny++
			ph.resolved++
		}
		return
	}
	// Reverse entry of a keep-state pass.
	i, ok := pop(ph.awaitRev, five.Reverse())
	if !ok {
		c.stray++
		return
	}
	if c.rv != nil {
		c.rv.observeInstall(five.Reverse())
	}
	if ph.st[i].out == outWrong {
		return
	}
	if out != int(c.outPort[five.DstIP]) {
		ph.st[i].out = outWrong
		ph.t.wrongPass++
		ph.resolved++
		return
	}
	ph.resolve(int(i), outPass, now)
}

// strays returns how many messages so far matched no outstanding
// packet-in.
func (c *checker) strays() int64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.stray
}

// status reports how far the phase has resolved: events whose buffer
// message arrived, events with an outcome, and released events still
// without one.
func (c *checker) status(ph *phaseRun) (acked, resolved, relOnly int64, t tally) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return ph.acked.Load(), ph.resolved, ph.relOnly, ph.t
}

// finish closes the phase: released events without an entry are voids,
// events with no answer at all timed out. It returns the tally and the
// latency (ns) of every correct decision, from the write that carried its
// packet-in to the arrival of its verdict's last message.
func (c *checker) finish(ph *phaseRun) (tally, []int64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	lat := make([]int64, 0, len(ph.evs))
	for i := range ph.st {
		st := &ph.st[i]
		switch {
		case st.out == outPass || st.out == outDeny:
			lat = append(lat, st.doneNS-ph.sentAt[i])
		case st.out != outNone:
		case st.released:
			st.out = outVoid
			ph.t.void++
		default:
			st.out = outTimeout
			ph.t.timeout++
		}
	}
	if c.ph == ph {
		c.ph = nil
	}
	return ph.t, lat
}

// revTracker follows the fact changes of a change stream: each unit's
// flows must be installed before its change and deleted (both directions)
// after it.
type revTracker struct {
	key      map[flow.Five]int32 // unit flow (either direction) -> unit
	left     []int32             // deletes outstanding per unit
	deleted  map[flow.Five]bool
	inst     map[flow.Five]bool // forward tuple -> reverse entry installed
	changeAt []atomic.Int64     // when each change fired (0 = not yet)
	doneAt   []int64
	early    []bool // a flow was deleted before its unit's change
}

func newRevTracker(us []unit) *revTracker {
	rv := &revTracker{
		key:      make(map[flow.Five]int32),
		left:     make([]int32, len(us)),
		deleted:  make(map[flow.Five]bool),
		inst:     make(map[flow.Five]bool),
		changeAt: make([]atomic.Int64, len(us)),
		doneAt:   make([]int64, len(us)),
		early:    make([]bool, len(us)),
	}
	for ui, u := range us {
		for _, f := range u.flows {
			rv.key[f] = int32(ui)
			rv.key[f.Reverse()] = int32(ui)
		}
		rv.left[ui] = int32(2 * len(u.flows))
	}
	return rv
}

func (rv *revTracker) observeInstall(f flow.Five) {
	if _, ok := rv.key[f]; ok {
		rv.inst[f] = true
	}
}

func (rv *revTracker) observeDelete(f flow.Five, now int64) {
	ui, ok := rv.key[f]
	if !ok || rv.deleted[f] {
		return
	}
	rv.deleted[f] = true
	if rv.changeAt[ui].Load() == 0 {
		rv.early[ui] = true
		return
	}
	rv.left[ui]--
	if rv.left[ui] == 0 {
		rv.doneAt[ui] = now
	}
}
