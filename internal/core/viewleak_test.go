package core

import (
	"testing"
	"time"

	"identxx/internal/flow"
	"identxx/internal/netaddr"
	"identxx/internal/pf"
	"identxx/internal/wire"
)

// These tests pin the response-view lifecycle: every controller-built
// (pooled) view stored in the shard cache must be released back to the
// pf pool on every eviction path — drop, overwrite, TTL sweep, flushAll —
// exactly once, and never while a concurrent borrower still holds it.
// The seed leaked on all three eviction paths; pf.ResponseViewStats is
// the regression oracle.

// builtTestEntry fabricates a cache entry whose views are pool-owned,
// the way answer-on-behalf decisions produce them.
func builtTestEntry(five flow.Five, epoch uint64, expires time.Time) cacheEntry {
	src := pf.AcquireResponse(five)
	dst := pf.AcquireResponse(five)
	life := &entryLife{src: src, dst: dst}
	life.refs.Store(1)
	return cacheEntry{src: src, dst: dst, expires: expires, epoch: epoch, life: life}
}

func viewDelta(t *testing.T, f func()) (acquired, released int64) {
	t.Helper()
	a0, r0 := pf.ResponseViewStats()
	f()
	a1, r1 := pf.ResponseViewStats()
	return a1 - a0, r1 - r0
}

func TestShardEvictionReleasesViews(t *testing.T) {
	now := time.Unix(1000, 0)
	ttl := time.Minute
	five := flow.Five{SrcIP: hostA, DstIP: hostB, Proto: netaddr.ProtoTCP, SrcPort: 1, DstPort: 2}

	t.Run("drop", func(t *testing.T) {
		tab := newShardTable(1)
		acq, rel := viewDelta(t, func() {
			sh := tab.shardFor(five)
			sh.store(five, builtTestEntry(five, 1, now.Add(ttl)), now, ttl, &claim{})
			sh.drop(five)
		})
		if acq != 2 || rel != 2 {
			t.Errorf("drop: acquired=%d released=%d, want 2/2", acq, rel)
		}
	})

	t.Run("overwrite", func(t *testing.T) {
		tab := newShardTable(1)
		acq, rel := viewDelta(t, func() {
			sh := tab.shardFor(five)
			sh.store(five, builtTestEntry(five, 1, now.Add(ttl)), now, ttl, &claim{})
			// Same flow stored again: the resident entry is evicted.
			sh.store(five, builtTestEntry(five, 1, now.Add(ttl)), now, ttl, &claim{})
			sh.drop(five)
		})
		if acq != 4 || rel != 4 {
			t.Errorf("overwrite: acquired=%d released=%d, want 4/4", acq, rel)
		}
	})

	t.Run("sweep", func(t *testing.T) {
		tab := newShardTable(1)
		other := flow.Five{SrcIP: hostA, DstIP: hostB, Proto: netaddr.ProtoTCP, SrcPort: 9, DstPort: 2}
		acq, rel := viewDelta(t, func() {
			sh := tab.shardFor(five)
			// An entry that will be expired by the time the sweep runs.
			sh.store(other, builtTestEntry(other, 1, now.Add(ttl)), now, ttl, &claim{})
			// A store one TTL later triggers the opportunistic sweep.
			later := now.Add(2 * ttl)
			sh.store(five, builtTestEntry(five, 1, later.Add(ttl)), later, ttl, &claim{})
			sh.drop(five)
		})
		if acq != 4 || rel != 4 {
			t.Errorf("sweep: acquired=%d released=%d, want 4/4", acq, rel)
		}
	})

	t.Run("flushAll", func(t *testing.T) {
		tab := newShardTable(4)
		acq, rel := viewDelta(t, func() {
			for i := 0; i < 16; i++ {
				f := flow.Five{SrcIP: hostA, DstIP: hostB, Proto: netaddr.ProtoTCP,
					SrcPort: netaddr.Port(1000 + i), DstPort: 2}
				tab.shardFor(f).store(f, builtTestEntry(f, 1, now.Add(ttl)), now, ttl, &claim{})
			}
			tab.flushAll()
		})
		if acq != 32 || rel != 32 {
			t.Errorf("flushAll: acquired=%d released=%d, want 32/32", acq, rel)
		}
	})
}

// TestShardEvictionWaitsForBorrower: eviction must not pool views a
// concurrent decision is still reading — the refcount defers the pool
// return to the final release, whichever side that is.
func TestShardEvictionWaitsForBorrower(t *testing.T) {
	now := time.Unix(1000, 0)
	ttl := time.Minute
	five := flow.Five{SrcIP: hostA, DstIP: hostB, Proto: netaddr.ProtoTCP, SrcPort: 1, DstPort: 2}
	tab := newShardTable(1)
	sh := tab.shardFor(five)
	sh.store(five, builtTestEntry(five, 1, now.Add(ttl)), now, ttl, &claim{})

	e, ok := sh.lookup(five, now, 1)
	if !ok {
		t.Fatal("lookup missed a fresh entry")
	}
	_, rel := viewDelta(t, func() { sh.drop(five) })
	if rel != 0 {
		t.Fatalf("eviction pooled views under an active borrow: released=%d", rel)
	}
	_, rel = viewDelta(t, func() { e.life.release() })
	if rel != 2 {
		t.Fatalf("final borrower release pooled %d views, want 2", rel)
	}
}

// TestControllerEvictionReleasesBuiltViews drives the lifecycle through
// the real decision path: answer-on-behalf responses are built from the
// pool, cached, borrowed by cache hits, and must all come home across
// per-flow revocation and a full policy-swap flush.
func TestControllerEvictionReleasesBuiltViews(t *testing.T) {
	tr := &fakeTransport{responses: map[netaddr.IP]map[string]string{}} // no daemons anywhere
	topo := &fakeTopo{hops: []Hop{{Datapath: 1, OutPort: 2}, {Datapath: 2, OutPort: 3}}}
	c := New(Config{
		Name:             "leak",
		Policy:           pf.MustCompile("leak", revPolicy),
		Transport:        tr,
		Topology:         topo,
		InstallEntries:   true,
		ResponseCacheTTL: time.Hour,
		Revocation:       true,
	})
	dp1 := &fakeDatapath{id: 1}
	dp2 := &fakeDatapath{id: 2}
	c.AddDatapath(dp1)
	c.AddDatapath(dp2)
	c.AnswerForHost(hostA, wire.KV{Key: "name", Value: "skype"})
	c.AnswerForHost(hostB, wire.KV{Key: "name", Value: "skype"})

	acq, rel := viewDelta(t, func() {
		for i := 0; i < 8; i++ {
			c.HandleEvent(sampleEvent(revFlow(40000+i), 1))
		}
		// Cache hits borrow the stored views and must release the borrow.
		for i := 0; i < 8; i++ {
			c.HandleEvent(sampleEvent(revFlow(40000+i), 1))
		}
		// Half the flows leave through per-flow revocation (drop path)…
		for i := 0; i < 4; i++ {
			c.RevokeFlow(revFlow(40000 + i))
		}
		// …the rest through the policy-swap flush.
		c.SetPolicy(pf.MustCompile("leak2", revPolicy))
	})
	if acq == 0 {
		t.Fatal("test built no views; answer-on-behalf path not exercised")
	}
	if acq != rel {
		t.Fatalf("view leak: acquired %d, released %d", acq, rel)
	}
}
