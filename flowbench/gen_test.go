package main

import (
	"math"
	"reflect"
	"testing"
	"time"

	"identxx/internal/netaddr"
)

// inputs generates everything a run's inputs depend on, for one seed.
func inputs(w *workload, seed uint64) *bench {
	return newBench(w, seed, 2*time.Second)
}

func TestSameSeedSameInputs(t *testing.T) {
	for name, w := range workloads {
		a, b := inputs(w, 7), inputs(w, 7)
		if !reflect.DeepEqual(a.warmEvs, b.warmEvs) || !reflect.DeepEqual(a.timed, b.timed) || !reflect.DeepEqual(a.units, b.units) {
			t.Errorf("%s: seed 7 generated different inputs twice", name)
		}
		c := inputs(w, 8)
		if reflect.DeepEqual(a.timed, c.timed) {
			t.Errorf("%s: seeds 7 and 8 generated the same timed phase", name)
		}
	}
}

func TestSearchTrialsDeterministic(t *testing.T) {
	w := workloads["miss"]
	a, b := inputs(w, 3), inputs(w, 3)
	ea := schedule(newRand(3, streamSearch+2), 2500, time.Second, w.draw(a))
	eb := schedule(newRand(3, streamSearch+2), 2500, time.Second, w.draw(b))
	if !reflect.DeepEqual(ea, eb) {
		t.Error("a trial's inputs depend on more than the seed, the trial index and the rate")
	}
}

func TestPoissonMeanMatchesRate(t *testing.T) {
	for _, rate := range []float64{500, 2000, 9000} {
		at := arrivals(newRand(11, 1), rate, 20*time.Second)
		got := float64(len(at)) / 20
		// The count of a Poisson process over 20s has sd sqrt(20*rate).
		if sd := math.Sqrt(20*rate) / 20; math.Abs(got-rate) > 4*sd {
			t.Errorf("rate %v: %v arrivals/s", rate, got)
		}
		var gaps []float64
		for i := 1; i < len(at); i++ {
			gaps = append(gaps, (at[i] - at[i-1]).Seconds())
		}
		mean, v := 0.0, 0.0
		for _, g := range gaps {
			mean += g
		}
		mean /= float64(len(gaps))
		for _, g := range gaps {
			v += (g - mean) * (g - mean)
		}
		// Exponential gaps: the coefficient of variation is 1.
		if cv := math.Sqrt(v/float64(len(gaps))) / mean; math.Abs(cv-1) > 0.05 {
			t.Errorf("rate %v: gap coefficient of variation %.3f, want 1", rate, cv)
		}
		for i := 1; i < len(at); i++ {
			if at[i] < at[i-1] {
				t.Fatalf("rate %v: arrivals out of order", rate)
			}
		}
	}
}

func TestGeneratedTuplesAreNew(t *testing.T) {
	b := inputs(workloads["miss"], 5)
	seen := map[any]bool{}
	for _, evs := range [][]event{b.warmEvs, b.timed, unitEvents(b.units, b.hosts)} {
		for _, ev := range evs {
			if seen[ev.five] {
				t.Fatalf("tuple %v generated twice", ev.five)
			}
			seen[ev.five] = true
		}
	}
}

func TestExpectedVerdicts(t *testing.T) {
	cases := []struct {
		user, dst int
		port      int
		want      verdict
	}{
		{userStaff, server1, portBoth, wantPass},
		{userGuest, server1, portBoth, wantDeny},
		{userStaff, server1, portDst, wantPass},
		{userStaff, server2, portDst, wantDeny},
		{userGuest, server1, portHdrPass, wantPass},
		{userStaff, server1, portHdrDeny, wantDeny},
	}
	for _, c := range cases {
		if got := expected(c.user, c.dst, netaddr.Port(c.port)); got != c.want {
			t.Errorf("user %d to host %d port %d: %v, want %v", c.user, c.dst, c.port, got, c.want)
		}
	}
}
