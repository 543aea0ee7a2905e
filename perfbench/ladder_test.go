package main

import (
	"errors"
	"math"
	"testing"
	"time"
)

func TestRungRule(t *testing.T) {
	ok := rung{Offered: 4000, Achieved: 3990, P99: latencyLimit}
	if !ok.passes() {
		t.Errorf("%+v should pass: p99 at the limit, achieved within 1%%", ok)
	}
	for name, r := range map[string]rung{
		"p99 over the limit": {Offered: 4000, Achieved: 4000, P99: latencyLimit + time.Microsecond},
		"a failed request":   {Offered: 4000, Achieved: 4000, P99: time.Millisecond, Failed: 1},
		"backlog":            {Offered: 4000, Achieved: 3950, P99: time.Millisecond},
	} {
		if r.passes() {
			t.Errorf("%s: %+v passes", name, r)
		}
	}
}

// synthShots makes n shots due every interval, each taking lat, the ones
// listed in slow taking slowLat instead.
func synthShots(n int, interval, lat, slowLat time.Duration, slow map[int]bool, fail int) []shot {
	t0 := time.Now()
	shots := make([]shot, n)
	for i := range shots {
		due := t0.Add(time.Duration(i) * interval)
		d := lat
		if slow[i] {
			d = slowLat
		}
		shots[i] = shot{Due: due, Sent: due, Done: due.Add(d)}
		if i == fail {
			shots[i].Err = errors.New("planted failure")
		}
	}
	return shots
}

func TestMeasureRung(t *testing.T) {
	const n = 3000
	interval := 250 * time.Microsecond // 4,000 req/s
	r := measureRung(4000, synthShots(n, interval, time.Millisecond, 0, nil, -1))
	if r.Failed != 0 || r.P99 != time.Millisecond || math.Abs(r.Achieved-4000) > 10 || !r.passes() {
		t.Errorf("steady run: %+v", r)
	}
	// A stall inside one window lifts that window's p99 only; the median of
	// the windows' p99s still passes.
	stalled := map[int]bool{}
	for i := 100; i < 150; i++ {
		stalled[i] = true
	}
	if r := measureRung(4000, synthShots(n, interval, time.Millisecond, 50*time.Millisecond, stalled, -1)); !r.passes() {
		t.Errorf("one stalled window decides the rung: %+v", r)
	}
	// Slow requests in every window fail it.
	everywhere := map[int]bool{}
	for i := 0; i < n; i += 50 {
		everywhere[i] = true
	}
	if r := measureRung(4000, synthShots(n, interval, time.Millisecond, 10*time.Millisecond, everywhere, -1)); r.passes() {
		t.Errorf("slow tail in every window passes: %+v", r)
	}
	if r := measureRung(4000, synthShots(n, interval, time.Millisecond, 0, nil, 7)); r.Failed != 1 || r.passes() {
		t.Errorf("a failed request passes: %+v", r)
	}
}

func TestHighestPassingFindsTheLastPassingRung(t *testing.T) {
	rates := ladder()
	if rates[0] != 1000 || rates[len(rates)-1] > 32000 {
		t.Fatalf("ladder runs %v..%v", rates[0], rates[len(rates)-1])
	}
	for i := 1; i < len(rates); i++ {
		if r := rates[i] / rates[i-1]; math.Abs(r-1.05) > 1e-9 {
			t.Fatalf("ladder step %d is %v", i, r)
		}
	}
	for _, capacity := range []float64{500, 1000, 7777, 12000, 40000} {
		probes := 0
		best, ok := highestPassing(rates, func(rate float64) rung {
			probes++
			r := rung{Offered: rate, Achieved: rate, P99: time.Millisecond}
			if rate > capacity {
				r.P99 = 2 * latencyLimit
			}
			return r
		})
		want := -1.0
		for _, r := range rates {
			if r <= capacity {
				want = r
			}
		}
		if ok != (want > 0) || (ok && best.Offered != want) {
			t.Errorf("capacity %v: got %v ok=%v, want %v", capacity, best.Offered, ok, want)
		}
		if limit := int(math.Ceil(math.Log2(float64(len(rates)+1)))) + 1; probes > limit {
			t.Errorf("capacity %v: %d probes, want at most %d", capacity, probes, limit)
		}
	}
}
