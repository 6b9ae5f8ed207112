package main

import (
	"math/rand/v2"
	"sort"
	"strconv"
	"time"

	"identxx/internal/flow"
	"identxx/internal/netaddr"
)

// event is one packet-in the generated switch sends.
type event struct {
	five     flow.Five
	src, dst int // host indices
	user     int // account on src owning the flow; the unit index on target hosts
	want     verdict
	register bool          // the flow must be registered on its source host before it is sent
	due      time.Duration // offset from the phase start (open loop)
}

// Random streams: each part of a run draws from its own stream of the
// seed, so the same seed yields the same inputs part by part.
const (
	streamWarm   = 1
	streamTimed  = 2
	streamUnits  = 3
	streamSearch = 100 // + trial index
)

func newRand(seed, stream uint64) *rand.Rand {
	return rand.New(rand.NewPCG(seed, stream))
}

// portAlloc hands out source ports per host, never reusing one within a
// run, so every generated tuple that is meant to be new is new.
type portAlloc struct{ next [numHosts]netaddr.Port }

const firstSrcPort = 10000

func (a *portAlloc) take(host int) netaddr.Port {
	if a.next[host] == 0 {
		a.next[host] = firstSrcPort
	}
	p := a.next[host]
	if p == 65535 {
		panic("flowbench: source ports exhausted on one host")
	}
	a.next[host]++
	return p
}

// arrivals returns Poisson arrival offsets at rate per second over d.
func arrivals(rng *rand.Rand, rate float64, d time.Duration) []time.Duration {
	out := make([]time.Duration, 0, int(rate*d.Seconds()*1.1)+16)
	t := 0.0
	end := d.Seconds()
	for {
		t += rng.ExpFloat64() / rate
		if t >= end {
			return out
		}
		out = append(out, time.Duration(t*float64(time.Second)))
	}
}

// missEvent is a new tuple on the both-ends-key port from a background
// client to server1: always a query miss. One in five flows belongs to the
// guest account and is denied.
func missEvent(rng *rand.Rand, ports *portAlloc, hosts []hostSpec) event {
	c := firstClient + rng.IntN(numClients)
	user := userStaff
	if rng.IntN(5) == 0 {
		user = userGuest
	}
	five := tcpFlow(hosts[c].ip, hosts[server1].ip, ports.take(c), portBoth)
	return event{five: five, src: c, dst: server1, user: user, want: expected(user, server1, portBoth), register: true}
}

// fastpathEvent draws one arrival that needs no daemon query: a repeat of
// a flow decided in warm-up (exact-cache hit), a new client port to an
// already-decided dst-key service (megaflow hit), or a header-only flow.
func fastpathEvent(rng *rand.Rand, ports *portAlloc, hosts []hostSpec, decided []event) event {
	switch r := rng.IntN(10); {
	case r < 4:
		ev := decided[rng.IntN(len(decided))]
		ev.register = false
		return ev
	case r < 7:
		c := firstClient + rng.IntN(numClients)
		dst := server1 + rng.IntN(2)
		five := tcpFlow(hosts[c].ip, hosts[dst].ip, ports.take(c), portDst)
		return event{five: five, src: c, dst: dst, user: userStaff, want: expected(userStaff, dst, portDst)}
	default:
		c := firstClient + rng.IntN(numClients)
		dport := netaddr.Port(portHdrPass + rng.IntN(2))
		five := tcpFlow(hosts[c].ip, hosts[server1].ip, ports.take(c), dport)
		return event{five: five, src: c, dst: server1, user: userStaff, want: expected(userStaff, server1, dport)}
	}
}

// schedule draws open-loop arrivals at rate over d, one event per arrival.
func schedule(rng *rand.Rand, rate float64, d time.Duration, draw func(*rand.Rand) event) []event {
	at := arrivals(rng, rate, d)
	evs := make([]event, len(at))
	for i, t := range at {
		evs[i] = draw(rng)
		evs[i].due = t
	}
	return evs
}

// Fact-change kinds on target hosts.
const (
	changeExit   = iota // the owning process exits
	changeLogout        // the owning user logs out
	changeGroup         // the owning user moves from staff to guests
	changeStorm         // one logout tearing down a large flow set
)

// unit is one fact change and the installed flows it must tear down. Each
// unit owns a fresh account and process on its target host, so a change
// touches exactly its own flows.
type unit struct {
	kind  int
	host  int
	user  string
	flows []flow.Five
	at    time.Duration // due offset from the start of the change stream
}

// units draws n single changes at rate per second (1–3 flows each, kinds
// in equal shares) plus storms of stormFlows flows each, the first at
// stormStart and then one every stormEvery.
func units(rng *rand.Rand, ports *portAlloc, hosts []hostSpec, n int, rate float64, storms, stormFlows int, stormStart, stormEvery time.Duration) []unit {
	out := make([]unit, 0, n+storms)
	mk := func(kind, nflows int, at time.Duration) {
		h := firstTarget + rng.IntN(numTargets)
		u := unit{kind: kind, host: h, user: "u" + strconv.Itoa(len(out)), at: at}
		for j := 0; j < nflows; j++ {
			u.flows = append(u.flows, tcpFlow(hosts[h].ip, hosts[server2].ip, ports.take(h), portBoth))
		}
		out = append(out, u)
	}
	for i := 0; i < n; i++ {
		mk(rng.IntN(3), 1+rng.IntN(3), time.Duration(float64(i)/rate*float64(time.Second)))
	}
	for i := 0; i < storms; i++ {
		mk(changeStorm, stormFlows, stormStart+time.Duration(i)*stormEvery)
	}
	// The change stream fires units in slice order.
	sort.SliceStable(out, func(i, j int) bool { return out[i].at < out[j].at })
	return out
}

// unitEvents is the warm-up traffic that installs every unit's flows.
func unitEvents(us []unit, hosts []hostSpec) []event {
	var evs []event
	for ui := range us {
		for _, f := range us[ui].flows {
			evs = append(evs, event{five: f, src: us[ui].host, dst: server2, user: ui, want: wantPass, register: true})
		}
	}
	return evs
}
