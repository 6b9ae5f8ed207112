package main

import (
	"bufio"
	"bytes"
	"errors"
	"net"
	"sync"
	"time"

	"identxx/internal/openflow"
	"identxx/internal/packet"
)

// clockBase anchors the run clock: every timestamp the benchmark compares
// is nanoseconds since this instant, on the monotonic clock.
var clockBase = time.Now()

func nowNS() int64 { return int64(time.Since(clockBase)) }

// switchConn is the generated switch: one raw secure-channel connection,
// written by the phase's sender and read by one reader goroutine that
// feeds the checker.
type switchConn struct {
	conn    net.Conn
	chk     *checker
	nextBuf uint32
	done    chan struct{}
	once    sync.Once
}

func startSwitch(conn net.Conn, chk *checker) *switchConn {
	s := &switchConn{conn: conn, chk: chk, nextBuf: 1, done: make(chan struct{})}
	go s.readLoop()
	return s
}

func (s *switchConn) readLoop() {
	defer close(s.done)
	br := bufio.NewReaderSize(s.conn, 64<<10)
	for {
		m, err := openflow.ReadMsg(br)
		if err != nil {
			return
		}
		s.chk.observe(m, nowNS())
	}
}

// close tears the channel down and waits for the reader to exit.
func (s *switchConn) close() {
	s.once.Do(func() { s.conn.Close() })
	<-s.done
}

// prepared is a phase whose packet-ins are encoded back to back, so the
// sender writes every message that is due in one call.
type prepared struct {
	ph  *phaseRun
	buf []byte
	off []int // message i is buf[off[i]:off[i+1]]
}

func (s *switchConn) prepare(evs []event, specs []hostSpec) *prepared {
	p := &prepared{ph: newPhaseRun(evs, s.nextBuf), off: make([]int, len(evs)+1)}
	var b bytes.Buffer
	for i := range evs {
		ev := &evs[i]
		frame := packet.TCPFrame(specs[ev.src].mac, specs[ev.dst].mac, ev.five, 0x02, nil)
		pin := openflow.PacketIn{
			SwitchID: datapathID,
			BufferID: p.ph.base + uint32(i),
			InPort:   specs[ev.src].port,
			Reason:   openflow.ReasonNoMatch,
			Frame:    frame,
		}
		openflow.WriteMsg(&b, openflow.EncodePacketIn(pin, uint32(i+1)))
		p.off[i+1] = b.Len()
	}
	p.buf = b.Bytes()
	s.nextBuf += uint32(len(evs))
	return p
}

// sendStats is what the sender observed about itself.
type sendStats struct {
	lagNS      []int64 // how late each packet-in left, against its due time
	backlogMax int64   // most packet-ins sent but not yet answered
	backlogEnd int64   // unanswered when the last one was sent
}

var errStalled = errors.New("closed-loop sender stalled: no answer for 10s")

// sendOpen sends the phase open loop: each packet-in leaves at its due
// time, or at once if the sender is already late, whatever the state of
// earlier ones. Every packet-in due by the time the sender wakes leaves in
// one write, stamped with the write's start.
//
// The sender waits with time.Sleep, which wakes an otherwise idle process
// only at millisecond granularity (the runtime's netpoller waits in whole
// milliseconds). A precise nanosleep would hold one of the runtime's two
// Ps for the whole wait, and work queued behind it then waits for the
// runtime's monitor to take that P back — up to 10ms — which injects
// stalls into the system under test. So packet-ins are timed from the
// write that carries them, not from their due time, and the lateness of
// each write against its due times is reported on its own.
func (s *switchConn) sendOpen(p *prepared) (sendStats, error) {
	ph := p.ph
	n := len(ph.evs)
	st := sendStats{lagNS: make([]int64, 0, n)}
	s.chk.setPhase(ph)
	ph.start = nowNS()
	for i := 0; i < n; {
		now := nowNS()
		if due := ph.start + int64(ph.evs[i].due); due > now {
			time.Sleep(time.Duration(due - now))
			continue
		}
		j := i
		for j < n && ph.start+int64(ph.evs[j].due) <= now {
			st.lagNS = append(st.lagNS, now-(ph.start+int64(ph.evs[j].due)))
			ph.sentAt[j] = now
			j++
		}
		if _, err := s.conn.Write(p.buf[p.off[i]:p.off[j]]); err != nil {
			return st, err
		}
		i = j
		b := int64(i) - ph.acked.Load()
		if b > st.backlogMax {
			st.backlogMax = b
		}
		st.backlogEnd = b
	}
	return st, nil
}

// sendClosed sends the phase as fast as answers allow, with at most window
// packet-ins unanswered: the warm-up.
func (s *switchConn) sendClosed(p *prepared, window int) error {
	ph := p.ph
	s.chk.setPhase(ph)
	ph.start = nowNS()
	n := len(ph.evs)
	for i := 0; i < n; {
		for int64(i)-ph.acked.Load() >= int64(window) {
			select {
			case <-s.chk.wake:
			case <-time.After(10 * time.Second):
				return errStalled
			}
		}
		j := i + int(int64(window)-(int64(i)-ph.acked.Load()))
		if j > n {
			j = n
		}
		now := nowNS()
		for k := i; k < j; k++ {
			ph.sentAt[k] = now
		}
		if _, err := s.conn.Write(p.buf[p.off[i]:p.off[j]]); err != nil {
			return err
		}
		i = j
	}
	return nil
}
