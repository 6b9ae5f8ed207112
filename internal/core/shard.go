package core

import (
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"identxx/internal/flow"
	"identxx/internal/netaddr"
	"identxx/internal/openflow"
	"identxx/internal/pf"
	"identxx/internal/wire"
)

// The controller's per-flow state (verdict/response cache, in-flight
// pending set, parked duplicate packet-ins) is split across N power-of-two
// shards keyed by flow.Five.ShardIndex, so concurrent packet-ins for
// different flows never contend on one lock. Each shard owns its own
// mutex, maps, and expiry sweep; nothing in a shard is touched without
// that shard's lock.

// entryLife refcounts a cache entry's controller-built response views.
// The cache holds one reference for the entry's residency; each lookup
// retains one for the borrowing decision (under the shard lock, so a
// borrow can never race the entry's eviction) and releases it when the
// decision finishes. The last release — eviction or final borrower,
// whichever is later — returns the views to the pf pool. Entries whose
// responses are all daemon-returned (GC-owned) carry no life at all, so
// the common path pays one nil check.
type entryLife struct {
	src, dst *wire.Response
	refs     atomic.Int32
}

func (l *entryLife) retain() {
	if l != nil {
		l.refs.Add(1)
	}
}

func (l *entryLife) release() {
	if l == nil {
		return
	}
	if l.refs.Add(-1) == 0 {
		pf.ReleaseResponse(l.src)
		pf.ReleaseResponse(l.dst)
	}
}

// cacheEntry caches the responses gathered for one flow. epoch pins the
// entry to the policy snapshot it was computed under: SetPolicy bumps the
// controller epoch, so entries cached by in-flight decisions racing a
// policy swap can never satisfy a lookup under the new policy, even if
// they land after the flush. life is non-nil when some of the responses
// are controller-built pool views; every path that removes the entry
// from the map must release it, or the views leak from the pool.
type cacheEntry struct {
	src, dst *wire.Response
	expires  time.Time
	epoch    uint64
	life     *entryLife
}

// parked is a duplicate packet-in waiting for the first packet's verdict.
// Releasing its buffer after the verdict's entries are installed lets the
// switch forward (or drop) it from its own table instead of re-punting.
// switchID and frame are kept so ablation runs (InstallEntries=false, no
// table entry to forward through) can packet-out the parked frame along
// the path instead of silently dropping it with the buffer.
type parked struct {
	dp       openflow.Datapath
	switchID uint64
	bufferID uint32
	frame    []byte
}

// claim is one in-flight decision's hold on its flow: the shard's pending
// set maps the flow to its owner's claim from begin until resolve. Parked
// duplicate packet-ins hang off it, and void marks it stale: a revocation
// naming the flow (or a host at either end) between the claim and the
// decision's publication sets void, because the responses the decision
// gathered (or the cache line it read) may predate the endpoint-state
// change. The decision then voids itself instead of publishing — nothing
// cached, nothing installed — and the packet's retransmission re-decides
// under current facts. The claim lives in the decision's pooled scratch,
// so claiming allocates nothing; it is only ever marked through the
// pending set, under the shard lock, so a resolved claim can be reset and
// reused without a revocation reaching it.
type claim struct {
	waiters []parked
	void    atomic.Bool
}

// shard is one lock domain of the flow-decision fast path.
type shard struct {
	mu        sync.Mutex
	respCache map[flow.Five]cacheEntry
	pending   map[flow.Five]*claim
	lastSweep time.Time
}

// shardTable is the full sharded state. Size is fixed at construction, so
// lookups need no lock at all: shard selection is pure hashing.
type shardTable struct {
	shards []shard
	mask   uint64
}

func newShardTable(n int) *shardTable {
	n = ceilPow2(n)
	t := &shardTable{shards: make([]shard, n), mask: uint64(n - 1)}
	for i := range t.shards {
		t.shards[i].respCache = make(map[flow.Five]cacheEntry)
		t.shards[i].pending = make(map[flow.Five]*claim)
	}
	return t
}

func (t *shardTable) shardFor(five flow.Five) *shard {
	return &t.shards[five.Hash()&t.mask]
}

// maxParked bounds the waiter list per in-flight flow. Parked events hold
// switch buffer slots until the verdict, so a slow daemon must not let one
// flow pin unbounded buffers: past the cap, duplicates fall back to the
// old drop-and-re-punt behavior (buffer released immediately).
const maxParked = 64

// begin claims the flow for the calling decision. The first caller for a
// flow gets first=true, its claim enters the pending set, and it owns
// resolving the flow; later callers' events are parked on the owner's
// claim (parked=true) and resolved by the owner's verdict, unless the
// list is full (parked=false: caller releases now).
func (s *shard) begin(five flow.Five, cl *claim, dp openflow.Datapath, ev openflow.PacketIn) (first, parkedOK bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if owner, inFlight := s.pending[five]; inFlight {
		if len(owner.waiters) >= maxParked {
			return false, false
		}
		owner.waiters = append(owner.waiters, parked{
			dp: dp, switchID: ev.SwitchID, bufferID: ev.BufferID, frame: ev.Frame,
		})
		return false, true
	}
	s.pending[five] = cl
	return true, false
}

// resolve ends the flow's in-flight window and returns the parked
// duplicates for the owner to release now that the verdict is installed.
// The slice belongs to the owner's claim: it stays valid until the
// owner's scratch is released.
func (s *shard) resolve(five flow.Five) []parked {
	s.mu.Lock()
	defer s.mu.Unlock()
	cl := s.pending[five]
	delete(s.pending, five)
	if cl == nil {
		return nil
	}
	return cl.waiters
}

// voidAndDrop is the shard half of a per-flow revocation: it marks the
// flow's in-flight claim void, if there is one, and drops its cached
// responses, reporting whether an entry was present. Both happen under one
// hold of the shard lock, which store also holds while it checks the
// claim: either a racing decision's store sees the mark and refuses, or
// the store committed first and the drop here removes it.
func (s *shard) voidAndDrop(five flow.Five) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	if cl := s.pending[five]; cl != nil {
		cl.void.Store(true)
	}
	return s.dropLocked(five)
}

// lookup returns the cached responses for five if present, unexpired, and
// from the current policy epoch.
func (s *shard) lookup(five flow.Five, now time.Time, epoch uint64) (cacheEntry, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	e, ok := s.respCache[five]
	if !ok || e.epoch != epoch || !now.Before(e.expires) {
		return cacheEntry{}, false
	}
	// Retain under the shard lock: eviction also runs under it, so the
	// borrow is pinned before any eviction path can issue the cache's
	// release.
	e.life.retain()
	return e, true
}

// store caches the responses for five and opportunistically sweeps the
// shard: at most once per TTL it walks its own map and drops expired
// entries, so expiry cost is bounded, per shard, and off every other
// shard's lock.
//
// cl is the storing decision's claim; the write is refused (ok=false)
// once a revocation has voided it. The check happens under the shard lock, and a revocation marks the
// claim under that lock too, before dropping the flow's entry (see
// voidAndDrop, voidHost): so either this store sees the mark and refuses,
// or it commits strictly before the revocation's drop, which then removes
// it. In neither interleaving can a pre-revocation response survive in
// the cache.
func (s *shard) store(five flow.Five, e cacheEntry, now time.Time, ttl time.Duration, cl *claim) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	if cl.void.Load() {
		return false
	}
	if s.lastSweep.IsZero() {
		s.lastSweep = now
	} else if now.Sub(s.lastSweep) >= ttl {
		for f, old := range s.respCache {
			if !now.Before(old.expires) {
				delete(s.respCache, f)
				old.life.release()
			}
		}
		s.lastSweep = now
	}
	if old, ok := s.respCache[five]; ok {
		// Overwrite is an eviction of the previous entry.
		old.life.release()
	}
	s.respCache[five] = e
	return true
}

// drop removes one flow's cached responses (the switch evicted its
// entry), reporting whether an entry was present.
func (s *shard) drop(five flow.Five) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.dropLocked(five)
}

func (s *shard) dropLocked(five flow.Five) bool {
	e, ok := s.respCache[five]
	delete(s.respCache, five)
	if ok {
		e.life.release()
	}
	return ok
}

// has reports whether a cache entry (of any epoch/expiry) exists for five;
// a diagnostics helper.
func (s *shard) has(five flow.Five) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	_, ok := s.respCache[five]
	return ok
}

// flushAll clears every shard's cache. Sequential on purpose: dropping a
// map pointer under a briefly held lock costs nanoseconds per shard, far
// less than goroutine spawn would — and correctness never depended on the
// flush anyway (the epoch bump already invalidated every entry).
func (t *shardTable) flushAll() {
	for i := range t.shards {
		s := &t.shards[i]
		s.mu.Lock()
		old := s.respCache
		s.respCache = make(map[flow.Five]cacheEntry)
		s.lastSweep = time.Time{}
		s.mu.Unlock()
		for _, e := range old {
			e.life.release()
		}
	}
}

// voidHost marks void every in-flight claim on a flow with host at either
// end: the shard half of a host-scoped revocation (key-scoped update,
// resync, operator revoke, credential lapse). It runs before the
// revocation resolves the host's registered flows, so a decision that
// registers after that resolution still finds its claim void at its
// publication re-check — including when nothing of the host's was
// registered yet.
func (t *shardTable) voidHost(host netaddr.IP) {
	for i := range t.shards {
		s := &t.shards[i]
		s.mu.Lock()
		for five, cl := range s.pending {
			if five.SrcIP == host || five.DstIP == host {
				cl.void.Store(true)
			}
		}
		s.mu.Unlock()
	}
}

// cachedFlows counts live (unexpired, current-epoch) entries across all
// shards; a diagnostics helper for tests and operators.
func (t *shardTable) cachedFlows(now time.Time, epoch uint64) int {
	n := 0
	for i := range t.shards {
		s := &t.shards[i]
		s.mu.Lock()
		for _, e := range s.respCache {
			if e.epoch == epoch && now.Before(e.expires) {
				n++
			}
		}
		s.mu.Unlock()
	}
	return n
}

func ceilPow2(n int) int {
	if n <= 1 {
		return 1
	}
	p := 1
	for p < n {
		p <<= 1
	}
	return p
}

// defaultShards sizes the table to the hardware: the next power of two at
// or above GOMAXPROCS, clamped to [1, 256].
func defaultShards() int {
	n := ceilPow2(runtime.GOMAXPROCS(0))
	if n > 256 {
		n = 256
	}
	return n
}
