package main

import (
	"encoding/binary"
	"fmt"
	"net"
	"sync"
	"time"

	"identxx/internal/cluster"
	"identxx/internal/core"
	"identxx/internal/daemon"
	"identxx/internal/hostinfo"
	"identxx/internal/netaddr"
	"identxx/internal/openflow"
	"identxx/internal/packet"
	"identxx/internal/pf"
	"identxx/internal/query"
)

// The rig wires the layers the way cmd/identctl does — query.Pool under
// query.Engine under an asynchronous, revocation-enabled core.Controller
// with a run-long response cache and megaflows, fed by an
// openflow.ChannelServer — because a main package cannot be imported.
// Keep it in step with identctl until the two share a constructor.

// Query and cache settings, as identctl runs them.
const (
	queryTimeout = 2 * time.Second
	leaseTTL     = 5 * time.Minute // identctl's -revocation-lease default
	cacheTTL     = time.Hour       // run-long: nothing expires during a run
)

// simHost is one end host: its OS view, its daemon and the daemon's TCP
// server.
type simHost struct {
	spec hostSpec
	h    *hostinfo.Host
	d    *daemon.Daemon
	srv  *daemon.Server
	addr string
	pids [2]int // client accounts: userStaff, userGuest
}

// rig is one controller deployment over loopback TCP, plus the switch.
type rig struct {
	hosts   []*simHost
	byIP    map[netaddr.IP]*simHost
	unitPID []int // process owning each change unit's flows

	reps  []*replica
	conns []*switchConn // one per replica; conns[0] carries the packet-ins
	chk   *checker
	tr    *tracer // nil: no wrappers
}

// replica is one controller: its query plane, its channel server and, in
// a replica set, the ownership router in front of it.
type replica struct {
	id     string
	pool   *query.Pool
	eng    *query.Engine
	ctl    *core.Controller
	rt     *cluster.Router // nil for a single controller
	server *openflow.ChannelServer
	addr   string       // channel listen address
	ln     net.Listener // inter-controller listener (replica sets)
	served chan struct{}

	mu    sync.Mutex
	links []cluster.Link // dialed by the router; closed at teardown
}

var clientExe = hostinfo.Executable{Path: "/usr/bin/curl", Name: "curl", Version: "7.19"}

// newRig builds the hosts and registers the given flows and change units,
// then starts daemons, replicas and channels, and connects the switch to
// every replica. tr, when non-nil, wraps every seam between layers.
func newRig(specs []hostSpec, flows []event, us []unit, replicas int, tr *tracer) (*rig, error) {
	r := &rig{byIP: make(map[netaddr.IP]*simHost), tr: tr}
	for _, s := range specs {
		sh := &simHost{spec: s, h: hostinfo.New(s.name, s.ip, s.mac)}
		switch s.role {
		case roleClient:
			staff := sh.h.AddUser("staff-user", "staff")
			guest := sh.h.AddUser("guest-user", "guests")
			sh.pids[userStaff] = sh.h.Exec(staff, clientExe).PID
			sh.pids[userGuest] = sh.h.Exec(guest, clientExe).PID
		case roleServer:
			www := sh.h.AddUser("www", "www")
			httpd := sh.h.Exec(www, hostinfo.Executable{Path: "/usr/sbin/httpd", Name: "httpd", Version: "2.2"})
			if err := sh.h.Listen(httpd.PID, netaddr.ProtoTCP, portBoth); err != nil {
				return nil, err
			}
			svc := httpd
			if s.ip != specs[server1].ip {
				svc = sh.h.Exec(www, hostinfo.Executable{Path: "/usr/sbin/sshd", Name: "sshd", Version: "5.2"})
			}
			if err := sh.h.Listen(svc.PID, netaddr.ProtoTCP, portDst); err != nil {
				return nil, err
			}
		}
		r.hosts = append(r.hosts, sh)
		r.byIP[s.ip] = sh
	}
	r.unitPID = make([]int, len(us))
	for ui, u := range us {
		h := r.hosts[u.host].h
		usr := h.AddUser(u.user, "staff")
		r.unitPID[ui] = h.Exec(usr, clientExe).PID
	}
	if err := r.register(flows); err != nil {
		return nil, err
	}

	// Daemons come up after the flows exist, as on a host whose
	// connections predate the controller.
	for _, sh := range r.hosts {
		sh.d = daemon.New(sh.h)
		sh.srv = daemon.NewServer(sh.d)
		a, err := sh.srv.Listen("127.0.0.1:0")
		if err != nil {
			r.close()
			return nil, err
		}
		sh.addr = a.String()
	}

	var members []cluster.Member
	for i := 0; i < replicas; i++ {
		rep, err := r.newReplica(string(rune('a'+i)), replicas > 1)
		if err != nil {
			r.close()
			return nil, err
		}
		r.reps = append(r.reps, rep)
		if rep.rt != nil {
			members = append(members, rep.rt.Self())
		}
	}
	for _, rep := range r.reps {
		if rep.rt != nil {
			if err := rep.rt.SetMembers(members); err != nil {
				r.close()
				return nil, err
			}
		}
	}
	r.chk = newChecker(specs)
	for _, rep := range r.reps {
		sw, err := dialSwitch(rep.addr, r.chk)
		if err != nil {
			r.close()
			return nil, err
		}
		r.conns = append(r.conns, sw)
	}
	for _, rep := range r.reps {
		for deadline := time.Now().Add(5 * time.Second); rep.ctl.DatapathCount() == 0; {
			if time.Now().After(deadline) {
				r.close()
				return nil, fmt.Errorf("switch never registered with replica %s", rep.id)
			}
			time.Sleep(time.Millisecond)
		}
	}
	return r, nil
}

// newReplica starts one controller, wired as identctl wires it; clustered
// adds the ownership router and its inter-controller listener.
func (r *rig) newReplica(id string, clustered bool) (*replica, error) {
	tr := r.tr
	rep := &replica{id: id}
	policy := pf.MustCompile("bench.control", benchPolicy)
	policy.Default = pf.Block
	rep.pool = query.NewPool(query.PoolConfig{Resolver: resolver{r}, RequestTimeout: queryTimeout})
	var lower query.Lower = rep.pool
	if tr != nil {
		lower = tr.wrapLower(rep.pool)
	}
	rep.eng = query.NewEngine(query.Config{Lower: lower, RequestTimeout: queryTimeout})
	var transport core.QueryTransport = rep.eng
	if tr != nil {
		transport = tr.wrapTransport(rep.eng)
	}
	rep.ctl = core.New(core.Config{
		Name:               "identctl",
		Policy:             policy,
		Transport:          transport,
		Topology:           topology{r},
		InstallEntries:     true,
		AsyncQueries:       true,
		Revocation:         true,
		RevocationLeaseTTL: leaseTTL,
		ResponseCacheTTL:   cacheTTL,
		Megaflow:           true,
	})
	update := rep.ctl.HandleUpdate
	if tr != nil {
		update = tr.wrapUpdate(update)
	}
	rep.eng.SetUpdateHandler(update)

	if clustered {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			rep.close()
			return nil, err
		}
		rep.ln = ln
		self := cluster.Member{ID: id, Addr: ln.Addr().String()}
		// identctl's default Dial, made explicit so the rig can close the
		// links it dials and the traced run can wrap them.
		rep.rt = cluster.NewRouter(rep.ctl, self, cluster.Options{Dial: func(m cluster.Member) (cluster.Link, error) {
			if m.Addr == "" {
				return nil, fmt.Errorf("cluster: member %s has no address", m.ID)
			}
			var l cluster.Link = cluster.DialTCP(m.Addr)
			if tr != nil {
				l = tr.wrapLink(l)
			}
			rep.mu.Lock()
			rep.links = append(rep.links, l)
			rep.mu.Unlock()
			return l, nil
		}})
		rep.served = make(chan struct{})
		go func() {
			defer close(rep.served)
			rep.rt.Serve(ln)
		}()
	}

	var h openflow.ChannelHandler = &channelHandler{ctl: rep.ctl, rt: rep.rt, tr: tr}
	if tr != nil {
		h = tr.wrapHandler(h)
	}
	rep.server = openflow.NewChannelServer(h)
	addr, err := rep.server.Listen("127.0.0.1:0")
	if err != nil {
		rep.close()
		return nil, err
	}
	rep.addr = addr.String()
	return rep, nil
}

// close stops the replica's listeners, links and query plane and waits
// for them.
func (rep *replica) close() {
	if rep.server != nil {
		rep.server.Close()
	}
	if rep.ln != nil {
		rep.ln.Close()
		<-rep.served
	}
	rep.mu.Lock()
	for _, l := range rep.links {
		l.Close()
	}
	rep.mu.Unlock()
	if rep.eng != nil {
		rep.eng.Close()
	}
	if rep.pool != nil {
		rep.pool.Close()
	}
}

// register records each flow as a connection of its owning process on its
// source host, so the source daemon can answer for it. Destination
// daemons answer from their listeners.
func (r *rig) register(flows []event) error {
	for _, ev := range flows {
		if !ev.register {
			continue
		}
		sh := r.hosts[ev.src]
		var pid int
		if sh.spec.role == roleTarget {
			pid = r.unitPID[ev.user] // user is the unit index
		} else {
			pid = sh.pids[ev.user]
		}
		if _, err := sh.h.Connect(pid, ev.five); err != nil {
			return err
		}
	}
	return nil
}

// close stops everything the rig started and waits for it.
func (r *rig) close() {
	for _, sw := range r.conns {
		sw.close()
	}
	for _, rep := range r.reps {
		rep.close()
	}
	for _, sh := range r.hosts {
		if sh.srv != nil {
			sh.srv.Close()
		}
	}
}

// count sums a controller counter over the replicas.
func (r *rig) count(name string) int64 {
	var n int64
	for _, rep := range r.reps {
		n += rep.ctl.Counters.Get(name)
	}
	return n
}

// topology mirrors identctl's: every host hangs off one switch, and a
// flow's path is the destination's port on it.
type topology struct{ r *rig }

func (t topology) Path(src, dst netaddr.IP) ([]core.Hop, error) {
	sh, ok := t.r.byIP[dst]
	if !ok {
		return nil, fmt.Errorf("unknown destination host %s", dst)
	}
	return []core.Hop{{Datapath: datapathID, OutPort: sh.spec.port}}, nil
}

// resolver maps host IPs to their daemons' loopback addresses.
type resolver struct{ r *rig }

func (res resolver) Resolve(host netaddr.IP) (string, bool) {
	sh, ok := res.r.byIP[host]
	if !ok || sh.addr == "" {
		return "", false
	}
	return sh.addr, true
}

// channelHandler mirrors identctl's adapter from ChannelServer callbacks
// onto the controller — or, in a replica set, onto the ownership router in
// front of it.
type channelHandler struct {
	ctl *core.Controller
	rt  *cluster.Router // nil when not clustered
	tr  *tracer         // times the tuple rebuild when set
}

func (h *channelHandler) SwitchConnected(sw *openflow.RemoteSwitch) {
	var dp openflow.Datapath = sw
	if h.tr != nil {
		dp = h.tr.wrapDatapath(sw)
	}
	if h.rt != nil {
		h.rt.AddDatapath(dp)
		return
	}
	h.ctl.AddDatapath(dp)
}

func (h *channelHandler) PacketIn(sw *openflow.RemoteSwitch, ev openflow.PacketIn) {
	// The wire codec does not carry the parsed tuple; rebuild it from the
	// frame before handing the event to the controller.
	if h.tr != nil {
		start := time.Now()
		ev = rebuildTuple(ev)
		h.tr.decode.add(time.Since(start))
	} else {
		ev = rebuildTuple(ev)
	}
	if h.rt != nil {
		h.rt.HandleEvent(ev)
		return
	}
	h.ctl.HandleEvent(ev)
}

func (h *channelHandler) FlowRemoved(sw *openflow.RemoteSwitch, ev openflow.FlowRemoved) {
	if h.rt != nil {
		h.rt.HandleFlowRemoved(nil, ev)
		return
	}
	h.ctl.HandleFlowRemoved(nil, ev)
}

func (h *channelHandler) SwitchDisconnected(sw *openflow.RemoteSwitch) {}

func rebuildTuple(ev openflow.PacketIn) openflow.PacketIn {
	if p, err := packet.Decode(ev.Frame); err == nil {
		ev.Tuple = p.Ten(ev.InPort)
	}
	return ev
}

// helloMsg is the switch's side of the channel handshake.
func helloMsg(id uint64) openflow.Msg {
	var b [8]byte
	binary.BigEndian.PutUint64(b[:], id)
	return openflow.Msg{Type: openflow.MsgHello, Body: b[:]}
}

// dialSwitch connects the generated switch to a controller's channel.
func dialSwitch(addr string, chk *checker) (*switchConn, error) {
	conn, err := net.DialTimeout("tcp", addr, 2*time.Second)
	if err != nil {
		return nil, err
	}
	if err := openflow.WriteMsg(conn, helloMsg(datapathID)); err != nil {
		conn.Close()
		return nil, err
	}
	conn.SetReadDeadline(time.Now().Add(5 * time.Second))
	m, err := openflow.ReadMsg(conn)
	if err != nil || m.Type != openflow.MsgHello {
		conn.Close()
		return nil, fmt.Errorf("hello exchange failed: %v", err)
	}
	conn.SetReadDeadline(time.Time{})
	return startSwitch(conn, chk), nil
}
