package main

import (
	"testing"
	"time"
)

func TestLeastDisturbedKeepsOrderAndCount(t *testing.T) {
	n := 0
	rs, steals := leastDisturbed(3, 10*time.Millisecond, func() int {
		n++
		time.Sleep(time.Millisecond)
		return n
	})
	if len(rs) != 3 || len(steals) != 3 {
		t.Fatalf("got %d results and %d steal shares, want 3", len(rs), len(steals))
	}
	for i := 1; i < len(rs); i++ {
		if rs[i] <= rs[i-1] {
			t.Errorf("results %v are not in the order taken", rs)
		}
	}
	for _, s := range steals {
		if s < 0 {
			t.Errorf("negative steal share %v", s)
		}
	}
}

func TestStolenShare(t *testing.T) {
	if got := stolen(100, 130, time.Second); got != 0.3 {
		t.Errorf("30 ticks in 1 s = %v of a CPU, want 0.3", got)
	}
	if got := stolen(5, 5, 0); got != 0 {
		t.Errorf("zero duration gives %v", got)
	}
}
