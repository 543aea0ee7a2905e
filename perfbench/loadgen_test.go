package main

import (
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
	"time"
)

// stallingServer answers {"prediction":1}; its first request stalls.
func stallingServer(t *testing.T, stall time.Duration) *httptest.Server {
	var calls atomic.Int64
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		io.Copy(io.Discard, r.Body)
		if calls.Add(1) == 1 {
			time.Sleep(stall)
		}
		io.WriteString(w, `{"prediction":1,"mode":"joined"}`)
	}))
	t.Cleanup(srv.Close)
	return srv
}

// driveServer runs an open loop of n requests at rate over conns connections.
func driveServer(t *testing.T, srv *httptest.Server, rate float64, n, conns int) []shot {
	t.Helper()
	addr := strings.TrimPrefix(srv.URL, "http://")
	cs := make([]*conn, conns)
	for i := range cs {
		cs[i] = newConn(addr)
		defer cs[i].close()
	}
	shots := openLoop(rate, n, conns, func(w, i int) error {
		status, body, err := cs[w].post("/predict", []byte(`{}`))
		if err != nil {
			return err
		}
		return checkPrediction(status, body, 1)
	})
	if len(shots) != n {
		t.Fatalf("%d shots, want %d", len(shots), n)
	}
	for i, s := range shots {
		if s.Err != nil {
			t.Fatalf("request %d: %v", i, s.Err)
		}
	}
	return shots
}

const stall = 60 * time.Millisecond

// TestLatencyCountsFromDueTime: on one connection, requests due during a
// stall wait for it. Timed from their due time they are late by the stall's
// remainder; timed from the moment they were sent they would look fast.
func TestLatencyCountsFromDueTime(t *testing.T) {
	shots := driveServer(t, stallingServer(t, stall), 1000, 40, 1)
	s := shots[10] // due 10 ms in, sent when the stall ended
	if lat := s.latency(); lat < stall-20*time.Millisecond {
		t.Errorf("request 10 latency from due time %v, want at least %v: the stall is not counted", lat, stall-20*time.Millisecond)
	}
	if own := s.Done.Sub(s.Sent); own > s.latency()/2 {
		t.Errorf("request 10 took %v of its %v after being sent; the fake did not stall it", own, s.latency())
	}
	if r := measureRung(1000, shots); r.passes() {
		t.Errorf("rung with a %v stall passes: %+v", stall, r)
	}
}

// TestBusyConnectionDoesNotShiftTheSchedule: with two connections, requests
// due while one connection stalls go out on time on the other.
func TestBusyConnectionDoesNotShiftTheSchedule(t *testing.T) {
	shots := driveServer(t, stallingServer(t, stall), 1000, 40, 2)
	if lat := shots[0].latency(); lat < stall {
		t.Errorf("the stalled request took %v", lat)
	}
	late := durationsMs(shots[1:], nil, shot.late)
	lat := durationsMs(shots[1:], nil, shot.latency)
	if p50 := percentile(late, 5000); p50 > 5 {
		t.Errorf("median lateness %.2f ms: the schedule waited for the stalled connection", p50)
	}
	if p50 := percentile(lat, 5000); p50 > 10 {
		t.Errorf("median latency %.2f ms: requests queued behind the stalled connection", p50)
	}
}

func TestOpenLoopUsesAtMostConnsWorkers(t *testing.T) {
	var inflight, peak atomic.Int64
	var badConn atomic.Bool
	shots := openLoop(2000, 200, 2, func(w, i int) error {
		if w < 0 || w >= 2 {
			badConn.Store(true)
		}
		n := inflight.Add(1)
		for {
			p := peak.Load()
			if n <= p || peak.CompareAndSwap(p, n) {
				break
			}
		}
		time.Sleep(2 * time.Millisecond)
		inflight.Add(-1)
		return nil
	})
	if len(shots) != 200 {
		t.Fatalf("%d shots", len(shots))
	}
	if p := peak.Load(); p > 2 {
		t.Errorf("%d requests in flight at once, want at most 2", p)
	}
	if badConn.Load() {
		t.Error("a worker used a connection index outside [0, conns)")
	}
	for i := 1; i < len(shots); i++ {
		if !shots[i].Due.After(shots[i-1].Due) {
			t.Fatalf("request %d due at or before request %d", i, i-1)
		}
	}
}

func TestConnPost(t *testing.T) {
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		body, _ := io.ReadAll(r.Body)
		switch r.URL.Query().Get("case") {
		case "shed":
			w.Header().Set("Retry-After", "1")
			w.WriteHeader(http.StatusTooManyRequests)
			io.WriteString(w, `{"error":"at capacity"}`)
		case "chunked":
			w.Write(body)
			w.(http.Flusher).Flush()
			w.Write(body)
		case "close":
			w.Header().Set("Connection", "close")
			w.Write(body)
		default:
			w.Write(body)
		}
	}))
	defer srv.Close()
	c := newConn(strings.TrimPrefix(srv.URL, "http://"))
	defer c.close()
	for _, path := range []string{"/echo", "/echo?case=close", "/echo"} {
		status, body, err := c.post(path, []byte(`{"x":1}`))
		if err != nil || status != http.StatusOK || string(body) != `{"x":1}` {
			t.Errorf("%s: %d %q %v", path, status, body, err)
		}
	}
	if status, _, err := c.post("/echo?case=shed", nil); err != nil || status != http.StatusTooManyRequests {
		t.Errorf("shed: %d %v", status, err)
	}
	if _, _, err := c.post("/echo?case=chunked", []byte("ab")); err == nil {
		t.Error("a chunked response was accepted")
	}
	if status, body, err := c.post("/echo", []byte("after")); err != nil || status != 200 || string(body) != "after" {
		t.Errorf("no recovery after an error: %d %q %v", status, body, err)
	}
}
