package daemon

import (
	"net"
	"sync"
	"sync/atomic"
	"testing"
	"time"
	"unique"

	"identxx/internal/flow"
	"identxx/internal/hostinfo"
	"identxx/internal/netaddr"
	"identxx/internal/wire"
)

// pushHost builds a host with one user running one process that owns an
// outbound flow, plus the daemon serving it.
func pushHost(t *testing.T) (*hostinfo.Host, *Daemon, *hostinfo.Process, flow.Five) {
	t.Helper()
	h := hostinfo.New("pc", netaddr.MustParseIP("10.9.0.1"), 1)
	u := h.AddUser("alice", "staff")
	p := h.Exec(u, hostinfo.Executable{Path: "/usr/bin/skype", Name: "skype", Version: "210"})
	d := New(h)
	five, err := h.Connect(p.PID, flow.Five{
		DstIP: netaddr.MustParseIP("10.9.0.2"), Proto: netaddr.ProtoTCP, DstPort: 5060,
	})
	if err != nil {
		t.Fatal(err)
	}
	return h, d, p, five
}

// collector accumulates published updates.
type collector struct {
	mu   sync.Mutex
	got  []wire.Update
	cond *sync.Cond
}

func newCollector() *collector {
	c := &collector{}
	c.cond = sync.NewCond(&c.mu)
	return c
}

func (c *collector) fn(u wire.Update) {
	c.mu.Lock()
	c.got = append(c.got, u)
	c.cond.Broadcast()
	c.mu.Unlock()
}

func (c *collector) all() []wire.Update {
	c.mu.Lock()
	defer c.mu.Unlock()
	return append([]wire.Update(nil), c.got...)
}

func TestSubscribeHelloCarriesSerial(t *testing.T) {
	_, d, _, _ := pushHost(t)
	c := newCollector()
	cancel := d.Subscribe(c.fn)
	defer cancel()
	got := c.all()
	if len(got) != 1 || !got[0].Hello {
		t.Fatalf("want exactly one hello, got %+v", got)
	}
	if got[0].Serial != d.UpdateSerial() {
		t.Errorf("hello serial %d != daemon serial %d", got[0].Serial, d.UpdateSerial())
	}
}

func TestProcessExitPublishesFlowUpdate(t *testing.T) {
	h, d, p, five := pushHost(t)
	// The daemon must have asserted facts for the flow first.
	resp := d.HandleQuery(wire.Query{Flow: five})
	if v, _ := resp.Latest(wire.KeyUserID); v != "alice" {
		t.Fatalf("setup: userID = %q", v)
	}
	c := newCollector()
	cancel := d.Subscribe(c.fn)
	defer cancel()

	h.Kill(p.PID)

	got := c.all()
	if len(got) != 2 { // hello + the change
		t.Fatalf("updates = %+v, want hello + one change", got)
	}
	u := got[1]
	if u.Flow != five {
		t.Errorf("update flow = %v, want %v", u.Flow, five)
	}
	if u.Serial != got[0].Serial+1 {
		t.Errorf("serial %d does not follow hello %d", u.Serial, got[0].Serial)
	}
	if u.Hello || u.Key == "" {
		t.Errorf("update should name a changed key: %+v", u)
	}
}

func TestLogoutAndGroupChangePublish(t *testing.T) {
	h, d, _, five := pushHost(t)
	d.HandleQuery(wire.Query{Flow: five})
	c := newCollector()
	cancel := d.Subscribe(c.fn)
	defer cancel()

	if !h.SetUserGroups("alice", "contractors") {
		t.Fatal("SetUserGroups failed")
	}
	got := c.all()
	if len(got) != 2 {
		t.Fatalf("after group change: updates = %+v", got)
	}
	if got[1].Key != wire.KeyGroupID {
		t.Errorf("changed key = %q, want groupID", got[1].Key)
	}
	if got[1].Old != "staff" || got[1].New != "contractors" {
		t.Errorf("old/new = %q/%q", got[1].Old, got[1].New)
	}

	h.Logout("alice")
	got = c.all()
	if len(got) != 3 {
		t.Fatalf("after logout: updates = %+v", got)
	}
	if got[2].Flow != five {
		t.Errorf("logout update flow = %v", got[2].Flow)
	}
}

func TestConfigInstallPublishes(t *testing.T) {
	_, d, _, five := pushHost(t)
	d.HandleQuery(wire.Query{Flow: five})
	c := newCollector()
	cancel := d.Subscribe(c.fn)
	defer cancel()

	d.InstallConfig(&ConfigFile{Apps: []*AppConfig{{
		Path:  "/usr/bin/skype",
		Pairs: []wire.KV{{Key: "vendor", Value: "skype-inc"}},
	}}}, true)
	got := c.all()
	if len(got) != 2 {
		t.Fatalf("after config install: updates = %+v", got)
	}
	if got[1].Key != "vendor" || got[1].New != "skype-inc" {
		t.Errorf("update = %+v, want vendor change", got[1])
	}
}

func TestClearFlowPairsPublishes(t *testing.T) {
	_, d, _, five := pushHost(t)
	d.ProvideFlowPairs(five, wire.KV{Key: "initiated-by", Value: "user"})
	d.HandleQuery(wire.Query{Flow: five})
	c := newCollector()
	cancel := d.Subscribe(c.fn)
	defer cancel()

	d.ClearFlowPairs(five)
	got := c.all()
	if len(got) != 2 {
		t.Fatalf("after ClearFlowPairs: updates = %+v", got)
	}
	if got[1].Key != "initiated-by" || got[1].Old != "user" || got[1].New != "" {
		t.Errorf("update = %+v, want initiated-by removed", got[1])
	}
}

func TestAnsweredMemoBoundedAndEvictionPublished(t *testing.T) {
	h, d, p, _ := pushHost(t)
	d.SetAnsweredCap(4)
	c := newCollector()
	cancel := d.Subscribe(c.fn)
	defer cancel()

	for i := 0; i < 8; i++ {
		f, err := h.Connect(p.PID, flow.Five{
			DstIP: netaddr.MustParseIP("10.9.0.2"), Proto: netaddr.ProtoTCP,
			SrcPort: netaddr.Port(20000 + i), DstPort: 80,
		})
		if err != nil {
			t.Fatal(err)
		}
		d.HandleQuery(wire.Query{Flow: f})
	}
	entries, evictions := d.AnsweredStats()
	if entries > 4 {
		t.Errorf("memo holds %d entries, cap is 4", entries)
	}
	if evictions != 4 {
		t.Errorf("evictions = %d, want 4", evictions)
	}
	// Each eviction is published as a flow-scoped keyless update.
	evictedUpdates := 0
	for _, u := range c.all() {
		if !u.Hello && u.FlowScoped() && u.Key == "" {
			evictedUpdates++
		}
	}
	if evictedUpdates != 4 {
		t.Errorf("eviction updates = %d, want 4", evictedUpdates)
	}
}

func TestDynamicFlowPairsBounded(t *testing.T) {
	_, d, _, _ := pushHost(t)
	d.SetDynamicCap(4)
	for i := 0; i < 10; i++ {
		f := flow.Five{
			SrcIP: netaddr.MustParseIP("10.9.0.1"), DstIP: netaddr.MustParseIP("10.9.0.2"),
			Proto: netaddr.ProtoTCP, SrcPort: netaddr.Port(30000 + i), DstPort: 80,
		}
		d.ProvideFlowPairs(f, wire.KV{Key: "k", Value: "v"})
	}
	entries, evictions := d.FlowPairStats()
	if entries > 4 {
		t.Errorf("dynamic map holds %d entries, cap is 4", entries)
	}
	if evictions != 6 {
		t.Errorf("evictions = %d, want 6", evictions)
	}
}

func TestNoUserToOwnedTransitionPublishes(t *testing.T) {
	// A flow answered NO-USER (destination not yet accepted) whose owner
	// appears later is also a fact change worth publishing.
	h := hostinfo.New("srv", netaddr.MustParseIP("10.9.1.1"), 1)
	u := h.AddSystemUser("httpd", "daemons")
	p := h.Exec(u, hostinfo.Executable{Path: "/usr/sbin/httpd", Name: "httpd"})
	d := New(h)
	five := flow.Five{
		SrcIP: netaddr.MustParseIP("10.9.1.2"), DstIP: h.IP,
		Proto: netaddr.ProtoTCP, SrcPort: 40000, DstPort: 80,
	}
	resp := d.HandleQuery(wire.Query{Flow: five})
	if v, _ := resp.Latest(wire.KeyError); v != "NO-USER" {
		t.Fatalf("setup: expected NO-USER, got %v", resp.Keys())
	}
	c := newCollector()
	cancel := d.Subscribe(c.fn)
	defer cancel()

	if err := h.Listen(p.PID, netaddr.ProtoTCP, 80); err != nil {
		t.Fatal(err)
	}
	got := c.all()
	if len(got) != 2 {
		t.Fatalf("after Listen: updates = %+v", got)
	}
	if got[1].Flow != five {
		t.Errorf("update flow = %v, want %v", got[1].Flow, five)
	}
}

// TestServerPushesUpdatesOverTCP drives the full server path: subscribe,
// hello, interleaved query, then a host change pushed as an update frame.
func TestServerPushesUpdatesOverTCP(t *testing.T) {
	h, d, p, five := pushHost(t)
	d.HandleQuery(wire.Query{Flow: five})
	srv := NewServer(d)
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	conn, err := net.Dial("tcp", addr.String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	conn.SetDeadline(time.Now().Add(5 * time.Second))

	if err := wire.WriteSubscribe(conn); err != nil {
		t.Fatal(err)
	}
	f, err := wire.ReadFrame(conn)
	if err != nil {
		t.Fatal(err)
	}
	hello, err := wire.DecodeUpdateFrame(f)
	if err != nil {
		t.Fatal(err)
	}
	if !hello.Hello {
		t.Fatalf("first frame after subscribe = %+v, want hello", hello)
	}

	// A query on the same connection still round-trips.
	if err := wire.WriteQuery(conn, wire.Query{Flow: five, Keys: []string{wire.KeyUserID}}); err != nil {
		t.Fatal(err)
	}
	f, err = wire.ReadFrame(conn)
	if err != nil {
		t.Fatal(err)
	}
	if f.Type != wire.FrameResponse {
		t.Fatalf("expected response frame, got %#02x", f.Type)
	}

	// Mutate the host: the change must arrive as a pushed update frame.
	h.Kill(p.PID)
	f, err = wire.ReadFrame(conn)
	if err != nil {
		t.Fatal(err)
	}
	u, err := wire.DecodeUpdateFrame(f)
	if err != nil {
		t.Fatal(err)
	}
	if u.Flow != five {
		t.Errorf("pushed update flow = %v, want %v", u.Flow, five)
	}
	if u.Serial != hello.Serial+1 {
		t.Errorf("pushed serial = %d, want %d", u.Serial, hello.Serial+1)
	}
}

// TestServerUnsubscribedNeverPushed pins the back-compat contract: a
// connection that never subscribes sees only response frames, whatever the
// host does.
func TestServerUnsubscribedNeverPushed(t *testing.T) {
	h, d, p, five := pushHost(t)
	srv := NewServer(d)
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	// A second, subscribed connection proves updates are flowing at all.
	sub, err := net.Dial("tcp", addr.String())
	if err != nil {
		t.Fatal(err)
	}
	defer sub.Close()
	sub.SetDeadline(time.Now().Add(5 * time.Second))
	if err := wire.WriteSubscribe(sub); err != nil {
		t.Fatal(err)
	}
	if _, err := wire.ReadFrame(sub); err != nil { // hello
		t.Fatal(err)
	}

	legacy, err := net.Dial("tcp", addr.String())
	if err != nil {
		t.Fatal(err)
	}
	defer legacy.Close()
	legacy.SetDeadline(time.Now().Add(5 * time.Second))
	if err := wire.WriteQuery(legacy, wire.Query{Flow: five}); err != nil {
		t.Fatal(err)
	}
	if _, err := wire.ReadResponse(legacy); err != nil {
		t.Fatal(err)
	}

	h.Kill(p.PID)
	if _, err := wire.ReadFrame(sub); err != nil { // the update, on the subscriber
		t.Fatal(err)
	}

	// The legacy connection gets exactly its response to a fresh query —
	// no update frame is interleaved ahead of it.
	if err := wire.WriteQuery(legacy, wire.Query{Flow: five}); err != nil {
		t.Fatal(err)
	}
	f, err := wire.ReadFrame(legacy)
	if err != nil {
		t.Fatal(err)
	}
	if f.Type != wire.FrameResponse {
		t.Fatalf("legacy connection received frame %#02x, want response only", f.Type)
	}
}

// TestChangesWhileUnsubscribedForceResync: facts changing while no one is
// subscribed cannot be published; the next Subscribe must advertise a
// serial that does not match what a previous subscriber last saw, so its
// transport synthesizes a resync instead of silently keeping stale grants.
func TestChangesWhileUnsubscribedForceResync(t *testing.T) {
	h, d, p, five := pushHost(t)
	d.HandleQuery(wire.Query{Flow: five})

	c1 := newCollector()
	cancel := d.Subscribe(c1.fn)
	before := c1.all()[0].Serial // hello

	// The subscriber goes away (connection lost), then the world changes.
	cancel()
	h.Kill(p.PID)

	// Resubscribe: the hello's serial must have moved past `before`.
	c2 := newCollector()
	cancel2 := d.Subscribe(c2.fn)
	defer cancel2()
	after := c2.all()[0].Serial
	if after == before {
		t.Fatalf("hello serial unchanged (%d) across an unsubscribed fact change: reconnecting controllers would never resync", after)
	}

	// Without any intervening change, resubscribing does not burn serials.
	cancel2()
	c3 := newCollector()
	cancel3 := d.Subscribe(c3.fn)
	defer cancel3()
	if got := c3.all()[0].Serial; got != after {
		t.Errorf("idle resubscribe moved the serial %d -> %d", after, got)
	}
}

// TestChangeDuringAnswerPublishes: a host change that lands after an
// answer read the host state but before the answer was memoized rescans a
// memo that does not hold the flow yet. The daemon must still publish the
// flow's update, or the stale answer it just sent would never be revoked.
// The forge hook runs at exactly that point: after the honest response was
// built, before HandleQuery memoizes it.
func TestChangeDuringAnswerPublishes(t *testing.T) {
	for _, tc := range []struct {
		name   string
		change func(h *hostinfo.Host, d *Daemon)
		key    string
	}{
		{"flow-scoped", func(h *hostinfo.Host, _ *Daemon) { h.SetUserGroups("alice", "contractors") }, wire.KeyGroupID},
		{"full rescan", func(_ *hostinfo.Host, d *Daemon) {
			d.InstallConfig(&ConfigFile{Apps: []*AppConfig{{
				Path:  "/usr/bin/skype",
				Pairs: []wire.KV{{Key: "vendor", Value: "skype-inc"}},
			}}}, true)
		}, "vendor"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			h, d, _, five := pushHost(t)
			c := newCollector()
			cancel := d.Subscribe(c.fn)
			defer cancel()
			var fired atomic.Bool
			d.SetForge(func(_ wire.Query, honest *wire.Response) *wire.Response {
				if fired.CompareAndSwap(false, true) {
					tc.change(h, d)
				}
				return honest
			})

			d.HandleQuery(wire.Query{Flow: five})

			var updates []wire.Update
			for _, u := range c.all() {
				if !u.Hello && u.Flow == five {
					updates = append(updates, u)
				}
			}
			if len(updates) != 1 || updates[0].Key != tc.key {
				t.Fatalf("updates for the answered flow = %+v, want one naming %q", updates, tc.key)
			}
		})
	}
}

// TestExecutableHashGolden pins the exe-hash value answers carry: the
// hash the host computes once per process must be what Executable.Hash
// returns, on every answer.
func TestExecutableHashGolden(t *testing.T) {
	const golden = "19ad31b0e3604b17df920d20799aafe5" // SHA-256("/usr/bin/skype\x00210\x00")[:16], hex
	h, d, p, five := pushHost(t)
	if got := p.Exe.Hash(); got != golden {
		t.Fatalf("Executable.Hash() = %q, want %q", got, golden)
	}
	if got := p.ExeHash(); got != golden {
		t.Fatalf("Process.ExeHash() = %q, want %q", got, golden)
	}
	for i := 0; i < 2; i++ {
		if got, _ := d.HandleQuery(wire.Query{Flow: five}).Latest(wire.KeyExeHash); got != golden {
			t.Errorf("answer %d exe-hash = %q, want %q", i, got, golden)
		}
	}
	// A group change replaces the process copy-on-write; the hash rides along.
	h.SetUserGroups("alice", "contractors")
	if got, _ := d.HandleQuery(wire.Query{Flow: five}).Latest(wire.KeyExeHash); got != golden {
		t.Errorf("after group change exe-hash = %q, want %q", got, golden)
	}
}

// TestAnsweredMemoInternsFacts: flows of one process assert identical
// facts, so a full memo holds one interned fact set for all of them, and
// a fact change still publishes the first changed key with its old and
// new values for every flow.
func TestAnsweredMemoInternsFacts(t *testing.T) {
	h, d, p, _ := pushHost(t)
	const flows = DefaultAnsweredCap
	for i := 0; i < flows; i++ {
		f, err := h.Connect(p.PID, flow.Five{
			DstIP: netaddr.MustParseIP("10.9.0.2"), Proto: netaddr.ProtoTCP,
			SrcPort: netaddr.Port(20000 + i), DstPort: 80,
		})
		if err != nil {
			t.Fatal(err)
		}
		d.HandleQuery(wire.Query{Flow: f})
	}
	distinct := func() int {
		d.mu.RLock()
		defer d.mu.RUnlock()
		sets := make(map[unique.Handle[string]]bool)
		for _, h := range d.answered {
			sets[h] = true
		}
		return len(sets)
	}
	if entries, _ := d.AnsweredStats(); entries != flows {
		t.Fatalf("memo holds %d entries, want %d", entries, flows)
	}
	if n := distinct(); n != 1 {
		t.Errorf("memo holds %d distinct fact sets, want 1", n)
	}

	c := newCollector()
	cancel := d.Subscribe(c.fn)
	defer cancel()
	if !h.SetUserGroups("alice", "contractors") {
		t.Fatal("SetUserGroups failed")
	}
	updates := 0
	for _, u := range c.all() {
		if u.Hello {
			continue
		}
		updates++
		if u.Key != wire.KeyGroupID || u.Old != "staff" || u.New != "contractors" {
			t.Fatalf("update = %+v, want groupID staff -> contractors", u)
		}
	}
	if updates != flows {
		t.Errorf("updates = %d, want one per memoized flow (%d)", updates, flows)
	}
	if n := distinct(); n != 1 {
		t.Errorf("after the change the memo holds %d distinct fact sets, want 1", n)
	}
}

// TestDiffFactsFirstChangedKey: the diff walks both encodings in key
// order and reports the first difference, whether a value changed or a
// key appeared or vanished; the Latest value of a repeated key counts.
func TestDiffFactsFirstChangedKey(t *testing.T) {
	enc := func(sections ...[]wire.KV) string {
		r := &wire.Response{}
		for _, pairs := range sections {
			r.Sections = append(r.Sections, wire.Section{Pairs: pairs})
		}
		return internFacts(r).Value()
	}
	base := enc([]wire.KV{{Key: "name", Value: "app"}, {Key: "userID", Value: "alice"}},
		[]wire.KV{{Key: "name", Value: "skype"}})
	for _, tc := range []struct {
		cur             string
		key, oldV, newV string
		changed         bool
	}{
		{cur: enc([]wire.KV{{Key: "userID", Value: "alice"}, {Key: "name", Value: "skype"}})},
		{cur: enc([]wire.KV{{Key: "name", Value: "skype"}, {Key: "userID", Value: "bob"}}),
			key: "userID", oldV: "alice", newV: "bob", changed: true},
		{cur: enc([]wire.KV{{Key: "name", Value: "skype"}}),
			key: "userID", oldV: "alice", changed: true},
		{cur: enc([]wire.KV{{Key: "groupID", Value: "staff"}, {Key: "name", Value: "x"}, {Key: "userID", Value: "alice"}}),
			key: "groupID", newV: "staff", changed: true},
	} {
		key, oldV, newV, changed := diffFacts(base, tc.cur)
		if key != tc.key || oldV != tc.oldV || newV != tc.newV || changed != tc.changed {
			t.Errorf("diffFacts = %q %q %q %v, want %q %q %q %v",
				key, oldV, newV, changed, tc.key, tc.oldV, tc.newV, tc.changed)
		}
	}
}
