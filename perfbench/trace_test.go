package main

import (
	"bufio"
	"encoding/json"
	"os"
	"path/filepath"
	"testing"
	"time"
)

func TestBreakdownPartsSumToTheParent(t *testing.T) {
	r := newRecorder()
	t0 := r.t0
	at := func(ms int) time.Time { return t0.Add(time.Duration(ms) * time.Millisecond) }
	root := r.add("build", "op", 0, at(0), at(100))
	r.add("a", "op", root, at(10), at(40))
	r.add("b", "op", root, at(30), at(60))  // overlaps a by 10 ms
	r.add("c", "op", root, at(90), at(120)) // runs past the parent
	other := r.add("x", "other", 0, at(0), at(5))
	r.add("y", "other", other, at(1), at(2))

	total, parts := breakdown(r.snapshot(), root)
	if total != 100*time.Millisecond {
		t.Fatalf("total %v", total)
	}
	if last := parts[len(parts)-1]; last.Name != "unattributed" || last.Dur != 40*time.Millisecond {
		t.Errorf("unattributed = %+v, want 40ms (100 − the 60ms children cover inside the parent)", last)
	}
	if len(parts) != 4 {
		t.Errorf("parts %+v: want a, b, c, unattributed", parts)
	}

	// Sequential children with the self time make up the whole exactly.
	r2 := newRecorder()
	id := r2.begin("build", "op", 0)
	for _, name := range []string{"one", "two"} {
		r2.timed(name, "op", id, func() error { time.Sleep(time.Millisecond); return nil })
	}
	whole := r2.end(id)
	_, parts = breakdown(r2.snapshot(), id)
	var sum time.Duration
	for _, p := range parts {
		sum += p.Dur
	}
	if sum != whole {
		t.Errorf("parts sum to %v, span lasted %v", sum, whole)
	}
}

func TestRecorderWritesEverySpan(t *testing.T) {
	r := newRecorder()
	root := r.begin("request", "req:1", 0)
	r.timed("serve.rtt", "req:1", root, func() error { return nil })
	r.end(root)
	path := filepath.Join(t.TempDir(), "spans.jsonl")
	if err := r.write(path); err != nil {
		t.Fatal(err)
	}
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	var got []span
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		var s span
		if err := json.Unmarshal(sc.Bytes(), &s); err != nil {
			t.Fatal(err)
		}
		got = append(got, s)
	}
	if len(got) != 2 || got[1].Parent != got[0].ID || got[1].Op != "req:1" || got[0].End < got[1].End {
		t.Errorf("spans %+v", got)
	}
}
