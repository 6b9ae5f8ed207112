package main

import (
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"identxx/internal/cluster"
	"identxx/internal/flow"
	"identxx/internal/netaddr"
	"identxx/internal/openflow"
	"identxx/internal/packet"
	"identxx/internal/query"
	"identxx/internal/trace"
	"identxx/internal/wire"
)

// The traced run wraps the public seams between layers and times each
// call from the benchmark's own files; nothing inside the program changes.
// Every wrapper exposes exactly the optional faces its wrapped value has
// (see seams_test.go), because the consumers type-assert them.

// spanLog keeps span durations in memory until the run ends.
type spanLog struct {
	mu sync.Mutex
	ns []int64
}

func (l *spanLog) add(d time.Duration) { l.addNS(int64(d)) }

func (l *spanLog) addNS(ns int64) {
	l.mu.Lock()
	l.ns = append(l.ns, ns)
	l.mu.Unlock()
}

// sorted returns a sorted copy of the durations.
func (l *spanLog) sorted() []int64 {
	l.mu.Lock()
	out := append([]int64(nil), l.ns...)
	l.mu.Unlock()
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// decRec is one decision's span boundaries on the run clock.
type decRec struct {
	hStart, hEnd int64 // ChannelHandler.PacketIn
	cbEnd        int64 // end of the query callback that completed it (0: none)
}

type exKey struct {
	host netaddr.IP
	flow flow.Five
}

// tracer owns every span and per-decision record of a traced run.
type tracer struct {
	handler, decode, syncSelf, completionSelf spanLog
	apply, async, engineWait, exchange        spanLog
	update, forward                           spanLog

	applies, releases, deletes, exchanges atomic.Int64

	mu       sync.Mutex
	applyNS  map[flow.Five]int64 // canonical tuple -> ns spent for it in datapath writes and forwards
	bufFive  map[uint32]flow.Five
	exNS     map[exKey]int64 // Lower.Exchange ns awaiting the query's callback
	cbCount  map[flow.Five]int
	dec      map[uint32]*decRec
	inflight map[flow.Five]uint32 // tuple -> buffer of its decision
}

func newTracer() *tracer {
	return &tracer{
		applyNS:  make(map[flow.Five]int64),
		bufFive:  make(map[uint32]flow.Five),
		exNS:     make(map[exKey]int64),
		cbCount:  make(map[flow.Five]int),
		dec:      make(map[uint32]*decRec),
		inflight: make(map[flow.Five]uint32),
	}
}

// canon maps both directions of a flow to one key.
func canon(f flow.Five) flow.Five {
	if f.SrcIP < f.DstIP || (f.SrcIP == f.DstIP && f.SrcPort <= f.DstPort) {
		return f
	}
	return f.Reverse()
}

// handlerSeam wraps the openflow.ChannelHandler.
type handlerSeam struct {
	inner openflow.ChannelHandler
	t     *tracer
}

func (t *tracer) wrapHandler(h openflow.ChannelHandler) openflow.ChannelHandler {
	return &handlerSeam{inner: h, t: t}
}

func (h *handlerSeam) SwitchConnected(sw *openflow.RemoteSwitch) { h.inner.SwitchConnected(sw) }
func (h *handlerSeam) FlowRemoved(sw *openflow.RemoteSwitch, ev openflow.FlowRemoved) {
	h.inner.FlowRemoved(sw, ev)
}
func (h *handlerSeam) SwitchDisconnected(sw *openflow.RemoteSwitch) { h.inner.SwitchDisconnected(sw) }

// PacketIn times the handler call, during which the channel reader is
// busy, and subtracts the datapath writes and replica forwards made inside
// it for the controller's synchronous self time.
func (h *handlerSeam) PacketIn(sw *openflow.RemoteSwitch, ev openflow.PacketIn) {
	t := h.t
	var five flow.Five
	if p, err := packet.Decode(ev.Frame); err == nil {
		five = p.Ten(ev.InPort).Five()
	}
	c := canon(five)
	rec := &decRec{}
	t.mu.Lock()
	a0 := t.applyNS[c]
	t.bufFive[ev.BufferID] = c
	t.inflight[five] = ev.BufferID
	t.dec[ev.BufferID] = rec
	start := nowNS()
	rec.hStart = start
	t.mu.Unlock()
	h.inner.PacketIn(sw, ev)
	end := nowNS()
	t.mu.Lock()
	a1 := t.applyNS[c]
	rec.hEnd = end
	t.mu.Unlock()
	t.handler.addNS(end - start)
	t.syncSelf.addNS(end - start - (a1 - a0))
}

// datapathSeam wraps the openflow.Datapath handed to AddDatapath. It has
// the RemoteSwitch's Close and, like it, no core.FlowEnumerator face.
type datapathSeam struct {
	inner *openflow.RemoteSwitch
	t     *tracer
}

func (t *tracer) wrapDatapath(sw *openflow.RemoteSwitch) *datapathSeam {
	return &datapathSeam{inner: sw, t: t}
}

func (d *datapathSeam) DatapathID() uint64 { return d.inner.DatapathID() }
func (d *datapathSeam) Close()             { d.inner.Close() }

func (d *datapathSeam) PacketOut(port uint16, frame []byte) { d.inner.PacketOut(port, frame) }

func (d *datapathSeam) Apply(mod openflow.FlowMod) error {
	start := nowNS()
	err := d.inner.Apply(mod)
	ns := nowNS() - start
	t := d.t
	t.apply.addNS(ns)
	t.applies.Add(1)
	if mod.Delete {
		t.deletes.Add(1)
	}
	c := canon(mod.Match.Tuple.Five())
	t.mu.Lock()
	t.applyNS[c] += ns
	t.mu.Unlock()
	return err
}

func (d *datapathSeam) ReleaseBuffer(buf uint32) {
	start := nowNS()
	d.inner.ReleaseBuffer(buf)
	ns := nowNS() - start
	t := d.t
	t.releases.Add(1)
	t.mu.Lock()
	if c, ok := t.bufFive[buf]; ok {
		t.applyNS[c] += ns
	}
	t.mu.Unlock()
}

// transportSeam wraps the query.Engine as core.Config.Transport: the
// blocking, async, traced-async and credential faces core.New checks for.
type transportSeam struct {
	inner *query.Engine
	t     *tracer
}

func (t *tracer) wrapTransport(e *query.Engine) *transportSeam { return &transportSeam{inner: e, t: t} }

func (s *transportSeam) Query(host netaddr.IP, q wire.Query) (*wire.Response, time.Duration, error) {
	return s.inner.Query(host, q)
}

func (s *transportSeam) QueryAsync(host netaddr.IP, q wire.Query, done func(*wire.Response, time.Duration, error)) {
	s.inner.QueryAsync(host, q, s.t.timedCallback(host, q.Flow, done))
}

func (s *transportSeam) QueryAsyncTraced(host netaddr.IP, q wire.Query, tb *trace.Buffer, ep uint16, done func(*wire.Response, time.Duration, error)) {
	s.inner.QueryAsyncTraced(host, q, tb, ep, s.t.timedCallback(host, q.Flow, done))
}

func (s *transportSeam) Credentialed() bool                  { return s.inner.Credentialed() }
func (s *transportSeam) HostAuthorized(host netaddr.IP) bool { return s.inner.HostAuthorized(host) }
func (s *transportSeam) CredentialExpiry(host netaddr.IP) (time.Time, bool) {
	return s.inner.CredentialExpiry(host)
}

// timedCallback times a query from the QueryAsync call to its callback,
// and the callback itself when it is the second of the decision's two —
// the one that finishes the decision.
func (t *tracer) timedCallback(host netaddr.IP, f flow.Five, done func(*wire.Response, time.Duration, error)) func(*wire.Response, time.Duration, error) {
	start := nowNS()
	return func(resp *wire.Response, rtt time.Duration, err error) {
		cbStart := nowNS()
		t.async.addNS(cbStart - start)
		c := canon(f)
		k := exKey{host, f}
		t.mu.Lock()
		ex, hadEx := t.exNS[k]
		delete(t.exNS, k)
		t.cbCount[f]++
		second := t.cbCount[f] == 2
		if second {
			delete(t.cbCount, f)
		}
		a0 := t.applyNS[c]
		buf, haveBuf := t.inflight[f]
		t.mu.Unlock()
		if hadEx {
			t.engineWait.addNS(cbStart - start - ex)
		}
		done(resp, rtt, err)
		if !second {
			return
		}
		cbEnd := nowNS()
		t.mu.Lock()
		a1 := t.applyNS[c]
		if rec := t.dec[buf]; haveBuf && rec != nil {
			rec.cbEnd = cbEnd
		}
		t.mu.Unlock()
		t.completionSelf.addNS(cbEnd - cbStart - (a1 - a0))
	}
}

// lowerSeam wraps the query.Pool as query.Config.Lower: the plain,
// deadline, push and credential faces query.NewEngine checks for.
type lowerSeam struct {
	inner *query.Pool
	t     *tracer
}

func (t *tracer) wrapLower(p *query.Pool) *lowerSeam { return &lowerSeam{inner: p, t: t} }

func (l *lowerSeam) Query(host netaddr.IP, q wire.Query) (*wire.Response, time.Duration, error) {
	start := nowNS()
	resp, rtt, err := l.inner.Query(host, q)
	l.t.exchanged(host, q.Flow, nowNS()-start)
	return resp, rtt, err
}

func (l *lowerSeam) Exchange(host netaddr.IP, q wire.Query, deadline time.Time) (*wire.Response, time.Duration, error) {
	start := nowNS()
	resp, rtt, err := l.inner.Exchange(host, q, deadline)
	l.t.exchanged(host, q.Flow, nowNS()-start)
	return resp, rtt, err
}

func (t *tracer) exchanged(host netaddr.IP, f flow.Five, ns int64) {
	t.exchange.addNS(ns)
	t.exchanges.Add(1)
	t.mu.Lock()
	t.exNS[exKey{host, f}] += ns
	t.mu.Unlock()
}

func (l *lowerSeam) SetUpdateHandler(fn func(host netaddr.IP, u wire.Update)) {
	l.inner.SetUpdateHandler(fn)
}
func (l *lowerSeam) Credentialed() bool                  { return l.inner.Credentialed() }
func (l *lowerSeam) HostAuthorized(host netaddr.IP) bool { return l.inner.HostAuthorized(host) }
func (l *lowerSeam) CredentialStatus(host netaddr.IP) (query.CredStatus, bool) {
	return l.inner.CredentialStatus(host)
}
func (l *lowerSeam) CredentialExpiry(host netaddr.IP) (time.Time, bool) {
	return l.inner.CredentialExpiry(host)
}
func (l *lowerSeam) CredentialSessions() []query.HostCredStatus { return l.inner.CredentialSessions() }

// linkSeam wraps a cluster.Link dialed through cluster.Options.Dial.
type linkSeam struct {
	inner cluster.Link
	t     *tracer
}

func (t *tracer) wrapLink(l cluster.Link) cluster.Link { return &linkSeam{inner: l, t: t} }

// ForwardEvent times the hand-off to the owning replica, which includes
// the owner's decision; the owner's datapath writes inside it are not
// counted again.
func (l *linkSeam) ForwardEvent(ev openflow.PacketIn) error {
	t := l.t
	c := canon(ev.Tuple.Five())
	t.mu.Lock()
	before := t.applyNS[c]
	t.mu.Unlock()
	start := nowNS()
	err := l.inner.ForwardEvent(ev)
	ns := nowNS() - start
	t.forward.addNS(ns)
	t.mu.Lock()
	t.applyNS[c] = before + ns
	t.mu.Unlock()
	return err
}

func (l *linkSeam) PushSnapshot(s *cluster.Snapshot) error { return l.inner.PushSnapshot(s) }
func (l *linkSeam) Close() error                           { return l.inner.Close() }

// wrapUpdate times each revocation update the engine delivers.
func (t *tracer) wrapUpdate(fn func(netaddr.IP, wire.Update)) func(netaddr.IP, wire.Update) {
	return func(host netaddr.IP, u wire.Update) {
		start := nowNS()
		fn(host, u)
		t.update.addNS(nowNS() - start)
	}
}

// unattributed returns, over the given decisions (buffer, write time,
// latency), the share of setup latency no span covers: the handler span,
// and for queried decisions everything from the handler's start to the end
// of the completing callback. The rest is mostly channel queueing.
func (t *tracer) unattributed(bufs []uint32, sent, lat []int64) float64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	var total, covered float64
	for i, b := range bufs {
		rec := t.dec[b]
		if rec == nil || lat[i] <= 0 {
			continue
		}
		end := rec.hEnd
		if rec.cbEnd > end {
			end = rec.cbEnd
		}
		cov := end - rec.hStart
		if done := sent[i] + lat[i]; end > done {
			cov -= end - done
		}
		if cov > lat[i] {
			cov = lat[i]
		}
		total += float64(lat[i])
		covered += float64(cov)
	}
	if total == 0 {
		return 0
	}
	return (total - covered) / total
}
