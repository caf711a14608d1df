package main

import (
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"
	"time"

	"repro/internal/graph"
	"repro/internal/sim"
)

// evenCalls is a synthetic trace: n calls between two nodes spread evenly
// over one model unit.
func evenCalls(n int) []sim.Call {
	calls := make([]sim.Call, n)
	for i := range calls {
		calls[i] = sim.Call{ID: i, Origin: graph.NodeID(0), Dest: graph.NodeID(1),
			Arrival: float64(i) / float64(n), Holding: 1}
	}
	return calls
}

// blockingServer answers every admit as blocked (so no release follows)
// after delay(i) for the i-th request.
func blockingServer(delay func(i int) time.Duration) *httptest.Server {
	var mu sync.Mutex
	n := 0
	return httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		mu.Lock()
		i := n
		n++
		mu.Unlock()
		time.Sleep(delay(i))
		w.Header().Set("Content-Type", "application/json")
		_, _ = w.Write([]byte(`{"id":0,"admitted":false,"alternate":false,"hops":0,"blocked_at":0}` + "\n"))
	}))
}

// TestDueTimeAccounting stalls the server once for 100 ms in a 400 admits/s
// open loop on one connection. Timed from send time only the stalled
// request would be slow; timed from due time every admit that fell due
// during the stall carries the wait it spent queued behind it, and the
// generator reports the lag and the backlog.
func TestDueTimeAccounting(t *testing.T) {
	const stall = 100 * time.Millisecond
	srv := blockingServer(func(i int) time.Duration {
		if i == 100 {
			return stall
		}
		return 0
	})
	defer srv.Close()
	r, err := runStep(context.Background(), stepSpec{url: srv.URL, calls: evenCalls(400), names: []string{"a", "b"},
		rate: 1, warm: 0, end: 1, conns: 1})
	if err != nil {
		t.Fatal(err)
	}
	if r.failed != 0 || len(r.admitLat) != 400 || r.blocked != 400 {
		t.Fatalf("failed %d, measured %d, blocked %d", r.failed, len(r.admitLat), r.blocked)
	}
	// Admits are due every 2.5 ms: about 40 fall due during the stall, and
	// the k-th of them waits about stall - k*2.5 ms.
	slow := 0
	for _, l := range r.admitLat {
		if l >= 20e3 {
			slow++
		}
	}
	if slow < 20 {
		t.Errorf("%d admits at or over 20 ms from due time; a 100 ms stall delays about 30", slow)
	}
	lat := sortedCopy(r.admitLat)
	if max := lat[len(lat)-1]; max < 0.9*float64(stall.Microseconds()) {
		t.Errorf("slowest admit %.0f us from due time, the stall alone is %v", max, stall)
	}
	if lag := sortedCopy(r.lag); lag[len(lag)-1] < 50e3 {
		t.Errorf("largest send lag %.0f us; requests queued behind a 100 ms stall", lag[len(lag)-1])
	}
	if r.backlogMax < 20 {
		t.Errorf("backlog max %d; about 40 admits fell due during the stall", r.backlogMax)
	}
	if !r.loopback {
		t.Error("test server not seen as loopback")
	}
}

// TestGrowingBacklog offers 400 admits/s to a server that takes 5 ms per
// request on one connection (200/s): the backlog grows across the step.
// The same offer to a server that answers at once does not.
func TestGrowingBacklog(t *testing.T) {
	for _, c := range []struct {
		delay time.Duration
		grow  bool
	}{{5 * time.Millisecond, true}, {0, false}} {
		srv := blockingServer(func(int) time.Duration { return c.delay })
		r, err := runStep(context.Background(), stepSpec{url: srv.URL, calls: evenCalls(400), names: []string{"a", "b"},
			rate: 1, warm: 0, end: 1, conns: 1})
		srv.Close()
		if err != nil {
			t.Fatal(err)
		}
		if got := r.growing(1); got != c.grow {
			t.Errorf("delay %v: growing = %v (backlog first quarter %.1f, last %.1f)", c.delay, got, r.backlogFirst, r.backlogLast)
		}
	}
}

// TestReleasesFollowAdmits answers every admit as admitted: each call must
// be released exactly once, after its admit, including the calls still in
// flight when the step ends.
func TestReleasesFollowAdmits(t *testing.T) {
	var mu sync.Mutex
	admitted := map[int64]int{}
	released := map[int64]int{}
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		var req struct {
			ID int64 `json:"id"`
		}
		if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		id := req.ID
		mu.Lock()
		defer mu.Unlock()
		switch r.URL.Path {
		case "/admit":
			admitted[id]++
			_, _ = w.Write([]byte(`{"admitted":true,"alternate":false}`))
		case "/release":
			if admitted[id] != 1 {
				http.Error(w, "release before admit", http.StatusConflict)
				return
			}
			released[id]++
			_, _ = w.Write([]byte(`{"released":true}`))
		}
	}))
	defer srv.Close()
	calls := evenCalls(200)
	for i := range calls {
		calls[i].Holding = 0.25 + float64(i%4)*0.5 // some depart inside the step, some after it
	}
	r, err := runStep(context.Background(), stepSpec{url: srv.URL, calls: calls, names: []string{"a", "b"},
		rate: 2, warm: 0.1, end: 1, conns: 2})
	if err != nil {
		t.Fatal(err)
	}
	if r.failed != 0 {
		t.Fatalf("%d failed: %v", r.failed, r.errors)
	}
	if len(admitted) != 200 || len(released) != 200 {
		t.Fatalf("admitted %d calls, released %d", len(admitted), len(released))
	}
	for id, n := range released {
		if n != 1 {
			t.Errorf("call %d released %d times", id, n)
		}
	}
}
