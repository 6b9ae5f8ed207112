package main

import (
	"math"
	"testing"
)

func trials(pts ...float64) []trial {
	var ts []trial
	for i := 0; i < len(pts); i += 2 {
		ts = append(ts, trial{rate: pts[i], margin: pts[i+1]})
	}
	return ts
}

func TestCrossingInterpolatesBetweenTrials(t *testing.T) {
	got := crossing(trials(1000, 0.5, 3000, 2, 2000, 0.8))
	want := 2000 + 1000*(0-math.Log(0.8))/(math.Log(2)-math.Log(0.8))
	if math.Abs(got-want) > 1e-6 {
		t.Fatalf("crossing = %.1f, want %.1f", got, want)
	}
}

// One trial over its limits below others within them is averaged with its
// neighbours instead of capping the answer.
func TestCrossingAbsorbsOneNoisyTrial(t *testing.T) {
	got := crossing(trials(1000, 0.5, 1500, 1.2, 2000, 0.8, 3000, 2))
	if got <= 2000 || got >= 3000 {
		t.Fatalf("crossing = %.1f, want between 2000 and 3000", got)
	}
}

func TestCrossingEnds(t *testing.T) {
	if got := crossing(trials(1000, 1.5, 2000, 3)); got != 0 {
		t.Fatalf("every trial over its limits: crossing = %.1f, want 0", got)
	}
	if got := crossing(trials(1000, 0.2, 2000, 0.4)); got != 2000 {
		t.Fatalf("no trial over its limits: crossing = %.1f, want 2000", got)
	}
	if got := crossing(nil); got != 0 {
		t.Fatalf("no trials: crossing = %.1f, want 0", got)
	}
}
