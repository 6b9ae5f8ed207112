package daemon

import (
	"encoding/binary"
	"slices"
	"strings"
	"unique"

	"identxx/internal/flow"
	"identxx/internal/hostinfo"
	"identxx/internal/wire"
)

// This file is the daemon half of the revocation plane: the daemon
// remembers what it has asserted (which facts, for which flows), watches
// its host's OS state, and pushes wire.Update messages to subscribers when
// a previously-asserted fact stops being true. The controller's verdicts
// are computed from flow-setup-time answers; without this channel a user
// logging out or a process exiting keeps its allowed flows until switch
// idle-timeout, and the response cache re-grants them without asking again.
//
// The answered-facts memo is bounded (answeredCap): a daemon on a busy
// server must not grow per-flow state without limit just because it was
// queried. Evicting a memo entry means the daemon can no longer tell
// subscribers when that flow's facts change, so eviction itself is
// published as a flow-scoped update — the controller conservatively
// revokes, the next packet re-queries, and the memo re-learns the flow.

// DefaultAnsweredCap bounds the answered-facts memo.
const DefaultAnsweredCap = 4096

// DefaultDynamicCap bounds the application-supplied flow-pair map
// (ProvideFlowPairs), which previously grew without limit unless the
// application called ClearFlowPairs.
const DefaultDynamicCap = 4096

// Subscribe registers fn to receive every future update, and synchronously
// delivers a hello update carrying the daemon's current serial before
// Subscribe returns — the subscriber's proof that this daemon pushes at
// all, and its serial baseline for gap detection. fn is invoked with the
// publication lock held: updates arrive in serial order, exactly once, and
// fn must not call back into the daemon's publication side (Subscribe,
// ProvideFlowPairs, ...). The returned cancel removes the subscription.
//
// Changes that happened while nobody was subscribed could not be
// published; they mark the stream dirty, and Subscribe burns one serial
// for them before saying hello — so a reconnecting controller's
// last-known serial no longer matches, its transport synthesizes a
// resync, and nothing that changed during the disconnect is silently
// kept.
func (d *Daemon) Subscribe(fn func(wire.Update)) (cancel func()) {
	d.pubMu.Lock()
	defer d.pubMu.Unlock()
	if d.subs == nil {
		d.subs = make(map[int]func(wire.Update))
	}
	if d.dirty {
		d.serial++
		d.dirty = false
	}
	id := d.nextSub
	d.nextSub++
	d.subs[id] = fn
	d.Counters.Add("daemon_subscribes", 1)
	fn(d.helloLocked())
	return func() {
		d.pubMu.Lock()
		delete(d.subs, id)
		d.pubMu.Unlock()
	}
}

// UpdateSerial returns the serial of the most recently published update.
func (d *Daemon) UpdateSerial() uint64 {
	d.pubMu.Lock()
	defer d.pubMu.Unlock()
	return d.serial
}

// AnsweredStats reports the answered-facts memo's resident entries and
// lifetime evictions (the RuleCacheStats shape).
func (d *Daemon) AnsweredStats() (entries, evictions int64) {
	d.mu.RLock()
	defer d.mu.RUnlock()
	return int64(len(d.answered)), d.answeredEvicted
}

// FlowPairStats reports the dynamic flow-pair map's resident entries and
// lifetime evictions.
func (d *Daemon) FlowPairStats() (entries, evictions int64) {
	d.mu.RLock()
	defer d.mu.RUnlock()
	return int64(len(d.dynamic)), d.dynamicEvicted
}

// emitLocked publishes one update to every subscriber. d.pubMu must be
// held: it owns the serial sequence and the delivery order.
func (d *Daemon) emitLocked(u wire.Update) {
	d.serial++
	u.Serial = d.serial
	if len(d.subs) > 0 {
		d.Counters.Add("daemon_updates_pushed", int64(len(d.subs)))
	}
	for _, fn := range d.subs {
		fn(u)
	}
}

// The memo stores what a flow was told as one interned string: the
// canonical encoding of the response's effective facts — for each key its
// Latest value (§3.3's "the latest value is the most trusted"), sorted by
// key, each key and value length-prefixed. Flows of one process assert
// identical facts, so a busy server's memo holds one copy per distinct
// fact set rather than a map per flow, and a rescan compares two handles
// instead of two maps, decoding only when they differ.

// internFacts returns the interned canonical encoding of resp's effective
// facts.
func internFacts(resp *wire.Response) unique.Handle[string] {
	var pairBuf [24]wire.KV
	pairs := pairBuf[:0]
	for _, s := range resp.Sections {
		pairs = append(pairs, s.Pairs...)
	}
	// Stable, so among equal keys the last pair is the Latest.
	slices.SortStableFunc(pairs, func(a, b wire.KV) int { return strings.Compare(a.Key, b.Key) })
	var encBuf [512]byte
	enc := encBuf[:0]
	for i, p := range pairs {
		if i+1 < len(pairs) && pairs[i+1].Key == p.Key {
			continue // a later section overrides this value
		}
		enc = binary.AppendUvarint(enc, uint64(len(p.Key)))
		enc = append(enc, p.Key...)
		enc = binary.AppendUvarint(enc, uint64(len(p.Value)))
		enc = append(enc, p.Value...)
	}
	return unique.Make(string(enc))
}

// nextFact decodes the first key/value pair of a canonical encoding and
// returns the remainder; ok=false at the end.
func nextFact(enc string) (key, value, rest string, ok bool) {
	if enc == "" {
		return "", "", "", false
	}
	key, enc = nextField(enc)
	value, enc = nextField(enc)
	return key, value, enc, true
}

func nextField(enc string) (field, rest string) {
	n, w := binary.Uvarint([]byte(enc[:min(len(enc), binary.MaxVarintLen64)]))
	enc = enc[w:]
	return enc[:n], enc[n:]
}

// diffFacts walks two canonical encodings in key order and returns the
// first key whose presence or value differs, with its old and new values
// ("" where absent); changed=false when the fact sets are equal.
func diffFacts(old, cur string) (key, oldV, newV string, changed bool) {
	oldK, ov, oldRest, haveOld := nextFact(old)
	curK, cv, curRest, haveCur := nextFact(cur)
	for haveOld || haveCur {
		switch {
		case haveOld && (!haveCur || oldK < curK):
			return oldK, ov, "", true
		case haveCur && (!haveOld || curK < oldK):
			return curK, "", cv, true
		case ov != cv:
			return oldK, ov, cv, true
		}
		oldK, ov, oldRest, haveOld = nextFact(oldRest)
		curK, cv, curRest, haveCur = nextFact(curRest)
	}
	return "", "", "", false
}

// remember memoizes the facts just asserted for a flow, evicting (and
// returning, for publication) an arbitrary other flow when the memo is
// over capacity. Callers must not hold d.mu or d.pubMu.
func (d *Daemon) remember(f flow.Five, resp *wire.Response) {
	facts := internFacts(resp)
	d.mu.Lock()
	if d.answered == nil {
		d.answered = make(map[flow.Five]unique.Handle[string])
	}
	limit := d.answeredCap
	if limit <= 0 {
		limit = DefaultAnsweredCap
	}
	_, existed := d.answered[f]
	var evicted flow.Five
	var haveEvicted bool
	if !existed && len(d.answered) >= limit {
		for victim := range d.answered {
			if victim != f {
				delete(d.answered, victim)
				d.answeredEvicted++
				evicted, haveEvicted = victim, true
				break
			}
		}
	}
	d.answered[f] = facts
	d.mu.Unlock()
	if haveEvicted {
		d.pubMu.Lock()
		if len(d.subs) > 0 {
			// The daemon stops tracking the evicted flow: a flow-scoped
			// update with no key tells the controller to drop everything it
			// derived from this daemon's answers for that flow.
			d.emitLocked(wire.Update{Flow: evicted})
		} else {
			d.dirty = true
		}
		d.pubMu.Unlock()
	}
}

// onHostChange is the hostinfo change listener: it re-derives assertions
// for exactly the flows the mutation touched (connection churn, process
// exit), falling back to the full memo walk only for mutations whose
// blast radius the host cannot enumerate (listener binds, patch
// installs, configuration changes).
func (d *Daemon) onHostChange(ch hostinfo.Change) {
	if ch.All {
		d.rescan()
		return
	}
	for _, f := range ch.Flows {
		d.rescanFlow(f)
	}
}

// rescan re-derives the facts for every memoized flow and publishes an
// update for each flow whose assertion changed. It runs after changes of
// unknowable scope (see onHostChange) and configuration installs; cost is
// bounded by the memo cap. With no subscribers nothing can be published:
// the stream is marked dirty so the next Subscribe forces a resync.
func (d *Daemon) rescan() {
	d.changes.Add(1)
	d.pubMu.Lock()
	defer d.pubMu.Unlock()
	d.mu.RLock()
	flows := make([]flow.Five, 0, len(d.answered))
	for f := range d.answered {
		flows = append(flows, f)
	}
	d.mu.RUnlock()
	if len(d.subs) == 0 {
		if len(flows) > 0 {
			d.dirty = true
		}
		return
	}
	for _, f := range flows {
		d.rescanFlowLocked(f)
	}
}

// rescanFlow re-derives one flow's facts after a change and publishes if
// they changed.
func (d *Daemon) rescanFlow(f flow.Five) {
	d.changes.Add(1)
	d.recheckFlow(f)
}

// recheckFlow is rescanFlow without counting a change: HandleQuery's
// re-check after a concurrent change, which must not make other in-flight
// answers re-check in turn.
func (d *Daemon) recheckFlow(f flow.Five) {
	d.pubMu.Lock()
	defer d.pubMu.Unlock()
	if len(d.subs) == 0 {
		// Nothing can be published; if the flow was being tracked, its
		// assertion may now be stale — force a resync at next subscribe.
		d.mu.RLock()
		_, tracked := d.answered[f]
		d.mu.RUnlock()
		if tracked {
			d.dirty = true
		}
		return
	}
	d.rescanFlowLocked(f)
}

// rescanFlowLocked does the per-flow diff-and-publish. d.pubMu must be
// held; d.mu must not be.
func (d *Daemon) rescanFlowLocked(f flow.Five) {
	cur := internFacts(d.buildResponse(wire.Query{Flow: f}))
	d.mu.Lock()
	old, ok := d.answered[f]
	if !ok || old == cur {
		d.mu.Unlock()
		return
	}
	d.answered[f] = cur
	d.mu.Unlock()
	key, oldV, newV, changed := diffFacts(old.Value(), cur.Value())
	if changed {
		d.emitLocked(wire.Update{Flow: f, Key: key, Old: oldV, New: newV})
	}
}
