package main

import (
	"strconv"

	"identxx/internal/flow"
	"identxx/internal/netaddr"
)

// The benchmark's network: one switch, background client hosts that carry
// the timed traffic, revocation-target client hosts whose flows the fact
// changes tear down, and two servers. Every host hangs off the switch on
// its own port and runs a push-subscribed daemon.

const datapathID = 1

// Service ports, one per rule group of benchPolicy.
const (
	portBoth    = 5001 // rule reads @src and @dst keys: every new tuple queries
	portDst     = 5002 // rule reads only @dst keys: megaflow class-mates
	portHdrPass = 5003 // decided by the header alone (pass)
	portHdrDeny = 5004 // decided by the header alone (block all)
)

// benchPolicy is the one policy every workload runs under.
const benchPolicy = `block all
pass from any to any port 5001 with member(@src[groupID], staff) with eq(@dst[name], httpd) keep state
pass from any to any port 5002 with eq(@dst[name], httpd) keep state
pass from any to any port 5003 keep state
`

const (
	numClients = 16 // background client hosts
	numTargets = 4  // revocation-target client hosts
)

// Host roles.
const (
	roleClient = iota
	roleTarget
	roleServer
)

// hostSpec is one host's static placement.
type hostSpec struct {
	name string
	ip   netaddr.IP
	mac  netaddr.MAC
	port uint16 // switch port
	role int
}

// Host indices into world.hosts.
const (
	firstClient = 0
	firstTarget = firstClient + numClients
	server1     = firstTarget + numTargets // httpd on 5001 and 5002
	server2     = server1 + 1              // httpd on 5001, sshd on 5002
	numHosts    = server2 + 1
)

func macFor(ip netaddr.IP) netaddr.MAC { return netaddr.MAC(0x020000000000 | uint64(ip)) }

// worldHosts returns the fixed host set.
func worldHosts() []hostSpec {
	hs := make([]hostSpec, 0, numHosts)
	for i := 0; i < numClients; i++ {
		ip := netaddr.IPv4(10, 1, 0, byte(i+1))
		hs = append(hs, hostSpec{name: "client" + strconv.Itoa(i), ip: ip, mac: macFor(ip), port: uint16(1 + i), role: roleClient})
	}
	for i := 0; i < numTargets; i++ {
		ip := netaddr.IPv4(10, 2, 0, byte(i+1))
		hs = append(hs, hostSpec{name: "target" + strconv.Itoa(i), ip: ip, mac: macFor(ip), port: uint16(31 + i), role: roleTarget})
	}
	for i := 0; i < 2; i++ {
		ip := netaddr.IPv4(10, 9, 0, byte(i+1))
		hs = append(hs, hostSpec{name: "server" + strconv.Itoa(i+1), ip: ip, mac: macFor(ip), port: uint16(41 + i), role: roleServer})
	}
	return hs
}

// verdict is what the generated facts imply for a flow.
type verdict uint8

const (
	wantPass verdict = iota + 1
	wantDeny
)

// Client accounts: every client host runs one process per account. Staff
// flows to an httpd service pass; guest flows are denied.
const (
	userStaff = iota
	userGuest
)

// expected returns the verdict benchPolicy gives a flow from a client
// account to a server port, given the daemons' facts.
func expected(user int, dst int, dport netaddr.Port) verdict {
	switch dport {
	case portBoth:
		if user == userStaff {
			return wantPass
		}
		return wantDeny
	case portDst:
		if dst == server1 { // httpd; server2 runs sshd there
			return wantPass
		}
		return wantDeny
	case portHdrPass:
		return wantPass
	}
	return wantDeny
}

// tcpFlow builds a TCP five-tuple.
func tcpFlow(src, dst netaddr.IP, sport, dport netaddr.Port) flow.Five {
	return flow.Five{SrcIP: src, DstIP: dst, Proto: netaddr.ProtoTCP, SrcPort: sport, DstPort: dport}
}
