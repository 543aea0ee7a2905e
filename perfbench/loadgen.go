package main

import (
	"sort"
	"sync"
	"sync/atomic"
	"syscall"
	"time"
)

// shot is one request of an open-loop run.
type shot struct {
	Due  time.Time // when the schedule said to send it
	Sent time.Time // when a connection began sending it
	Done time.Time // when its response was read and checked
	Err  error
}

// latency is the request's latency from its due time, so a stall counts
// against every request that was due while it lasted.
func (s shot) latency() time.Duration { return s.Done.Sub(s.Due) }

// late is how far behind schedule the request was sent: the generator's
// wake-up lateness, plus any wait for a free connection.
func (s shot) late() time.Duration { return s.Sent.Sub(s.Due) }

// openLoop sends n requests on a fixed schedule, request i due at i/rate
// seconds after the start, whatever the responses do. Each of conns workers
// owns one connection; a free worker takes the next request in schedule
// order, sleeps until it is due and sends it on its connection. A busy
// connection never shifts the schedule: the next request goes out on another
// connection, and a request due while all are busy is sent as soon as one
// frees, its wait counted in its latency from due time. send performs
// request i on connection conn and returns an error for a failed or wrong
// answer.
func openLoop(rate float64, n, conns int, send func(conn, i int) error) []shot {
	shots := make([]shot, n)
	interval := time.Duration(float64(time.Second) / rate)
	start := time.Now()
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < conns; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1) - 1)
				if i >= n {
					return
				}
				due := start.Add(time.Duration(i) * interval)
				if wait := time.Until(due); wait > 0 {
					sleep(wait)
				}
				s := &shots[i]
				s.Due, s.Sent = due, time.Now()
				s.Err = send(w, i)
				s.Done = time.Now()
			}
		}()
	}
	wg.Wait()
	return shots
}

// sleep blocks for d with nanosleep: the runtime's timers wake up to a
// millisecond late on Linux, which would make the generator itself the
// source of late requests at these rates.
func sleep(d time.Duration) {
	ts := syscall.NsecToTimespec(int64(d))
	for syscall.Nanosleep(&ts, &ts) == syscall.EINTR {
	}
}

// durationsMs returns the selected durations in milliseconds, sorted.
func durationsMs(shots []shot, keep func(i int) bool, f func(shot) time.Duration) []float64 {
	var out []float64
	for i, s := range shots {
		if keep == nil || keep(i) {
			out = append(out, float64(f(s))/1e6)
		}
	}
	sort.Float64s(out)
	return out
}

// latencyLimit is the p99 latency, from due time, a ladder rung must meet.
// It sits where queueing makes p99 climb steeply with the rate. At 2 ms, on
// the 2-vCPU VM the benchmark was tuned on, p99 is still on its gentle slope
// and the highest passing rung ranged from 18,700 to 29,000 req/s across
// undisturbed runs; at 5 ms it stays within a rung or two of the knee.
const latencyLimit = 5 * time.Millisecond

// rung is one rate of the max_rps ladder and what the open loop achieved.
type rung struct {
	Offered  float64 // requests per second
	Achieved float64 // completed requests per second of run time
	P99      time.Duration
	Failed   int
}

// rungWindows is how many consecutive windows a rung's requests are split
// into; the rung's p99 is the median of the windows' p99s, so one stall of
// the machine does not decide the rung alone.
const rungWindows = 3

// minWindowShots is the fewest requests a window's p99 is taken from: ten
// samples beyond it.
const minWindowShots = 1000

// measureRung reduces an open-loop run at rate offered to a rung.
func measureRung(offered float64, shots []shot) rung {
	r := rung{Offered: offered}
	if len(shots) == 0 {
		return r
	}
	last := shots[0].Done
	for _, s := range shots {
		if s.Err != nil {
			r.Failed++
		}
		if s.Done.After(last) {
			last = s.Done
		}
	}
	var p99s []float64
	per := len(shots) / rungWindows
	for w := 0; w < rungWindows; w++ {
		lat := durationsMs(shots[w*per:(w+1)*per], nil, shot.latency)
		p99s = append(p99s, percentile(lat, 9900))
	}
	r.P99 = time.Duration(medianOf(p99s) * 1e6)
	if span := last.Sub(shots[0].Due); span > 0 {
		r.Achieved = float64(len(shots)) / span.Seconds()
	}
	return r
}

// passes is the ladder rule: p99 from due time within latencyLimit, no
// request failed, and the achieved rate within 1% of the offered rate.
func (r rung) passes() bool {
	return r.Failed == 0 && r.P99 <= latencyLimit && r.Achieved >= 0.99*r.Offered
}

// ladder is the fixed set of offered rates max_rps is chosen from: 1,000 to
// 32,000 req/s in steps of 5%.
func ladder() []float64 {
	var rates []float64
	for r := 1000.0; r <= 32000; r *= 1.05 {
		rates = append(rates, r)
	}
	return rates
}

// highestPassing finds the highest rung of rates that passes, probing by
// binary search (it assumes a rate passes whenever a higher one does). ok is
// false when even the lowest rate fails.
func highestPassing(rates []float64, probe func(rate float64) rung) (best rung, ok bool) {
	lo, hi := -1, len(rates) // rates[lo] passes, rates[hi] fails
	for hi-lo > 1 {
		mid := (lo + hi) / 2
		if r := probe(rates[mid]); r.passes() {
			lo, best = mid, r
		} else {
			hi = mid
		}
	}
	return best, lo >= 0
}
