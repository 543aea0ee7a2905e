package main

import (
	"bytes"
	"os"
	"sort"
	"strconv"
	"syscall"
	"time"
)

// On a virtual machine the host can take the CPUs away for milliseconds at a
// time ("steal"), in episodes that last minutes. A stall like that lands in
// the tail of every request due while it lasts, so the serve workload takes
// its latency windows and ladder rungs again while the host steals more than
// stealBudget of their run time, for as long as its patience allows, and
// keeps the least disturbed ones. Steal is read from /proc/stat; where it is
// not available every measurement counts as undisturbed.

// stealBudget is the CPU time the host may steal during a measurement, as a
// share of its wall time, for the measurement to count as undisturbed.
// Undisturbed minutes of the 2-vCPU VM the benchmark was tuned on steal under
// 1.5%; disturbed ones 15–40%.
const stealBudget = 0.03

// stealPatience is how much longer than planned a measurement phase may run
// while it waits for the host to stop stealing.
const stealPatience = 2

// userHz is the unit of /proc/stat counters.
const userHz = 100

// stealTicks returns the machine's cumulative stolen CPU time in /proc/stat
// ticks, and false where the kernel does not report it.
func stealTicks() (uint64, bool) {
	data, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, false
	}
	line, _, _ := bytes.Cut(data, []byte("\n"))
	f := bytes.Fields(line)
	// cpu user nice system idle iowait irq softirq steal ...
	if len(f) < 9 || string(f[0]) != "cpu" {
		return 0, false
	}
	v, err := strconv.ParseUint(string(f[8]), 10, 64)
	return v, err == nil
}

// stolen is the share of wall time d the host stole between two readings,
// as a fraction of one CPU.
func stolen(before, after uint64, d time.Duration) float64 {
	if d <= 0 {
		return 0
	}
	return float64(after-before) / userHz / d.Seconds()
}

// withSteal runs measure and returns its result and the share of its wall
// time the host stole.
func withSteal[T any](measure func() T) (T, float64) {
	s0, ok0 := stealTicks()
	t0 := time.Now()
	r := measure()
	s1, ok1 := stealTicks()
	if !ok0 || !ok1 {
		return r, 0
	}
	return r, stolen(s0, s1, time.Since(t0))
}

// leastDisturbed takes want measurements, then goes on taking more while
// fewer than want were undisturbed and the phase has run less than
// stealPatience times planned. It returns the want least disturbed
// measurements in the order taken, with their steal shares.
func leastDisturbed[T any](want int, planned time.Duration, measure func() T) ([]T, []float64) {
	type taken struct {
		r     T
		steal float64
		seq   int
	}
	deadline := time.Now().Add(stealPatience * planned)
	var all []taken
	clean := 0
	for len(all) < want || (clean < want && time.Now().Before(deadline)) {
		r, steal := withSteal(measure)
		all = append(all, taken{r, steal, len(all)})
		if steal <= stealBudget {
			clean++
		}
	}
	sort.SliceStable(all, func(i, j int) bool { return all[i].steal < all[j].steal })
	all = all[:want]
	sort.Slice(all, func(i, j int) bool { return all[i].seq < all[j].seq })
	rs, steals := make([]T, want), make([]float64, want)
	for i, t := range all {
		rs[i], steals[i] = t.r, t.steal
	}
	return rs, steals
}

// cpuTime is the CPU time the process has used, user and system, over all
// its threads. The kernel does not charge a thread for time the host stole
// from its virtual CPU, so on a shared host this measures the program's own
// work where wall time also measures the neighbours.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		panic("perfbench: getrusage: " + err.Error())
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// cost is what one operation took: wall time and the process's CPU time.
type cost struct{ wall, cpu time.Duration }

// measureCost runs f and returns its cost.
func measureCost(f func()) cost {
	c0, t0 := cpuTime(), time.Now()
	f()
	return cost{time.Since(t0), cpuTime() - c0}
}

// costSeconds splits costs into wall and CPU seconds.
func costSeconds(cs []cost) (walls, cpus []float64) {
	for _, c := range cs {
		walls, cpus = append(walls, c.wall.Seconds()), append(cpus, c.cpu.Seconds())
	}
	return walls, cpus
}
