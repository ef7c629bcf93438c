package serve

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// drainFlood hammers the server with distinct sync submissions from several
// goroutines while the caller drains it, and asserts the drain/accept
// contract: every response is either a terminal 200 (the run completed), a
// shed 429, or a draining 503 — never an acceptance that evaporates. It
// returns once the flood goroutines exit.
func drainFlood(t *testing.T, url string, stop chan struct{}) *sync.WaitGroup {
	t.Helper()
	var wg sync.WaitGroup
	for g := 0; g < 6; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				spec := fmt.Sprintf(`{"protocol":"getm","benchmark":"ht-h","scale":0.1,"seed":%d}`, g*100000+i+1)
				resp, err := http.Post(url+"/v1/runs", "application/json", strings.NewReader(spec))
				if err != nil {
					// The test server itself went away (test teardown).
					return
				}
				body, _ := io.ReadAll(resp.Body)
				resp.Body.Close()
				switch resp.StatusCode {
				case http.StatusOK:
					var out Response
					if err := json.Unmarshal(body, &out); err != nil {
						t.Errorf("accepted run returned undecodable body %q: %v", body, err)
						return
					}
					if out.Status != "done" {
						t.Errorf("accepted sync run answered non-terminal status %q", out.Status)
					}
				case http.StatusTooManyRequests, http.StatusServiceUnavailable:
					// Shed or refused-during-drain: the documented outcomes.
				default:
					t.Errorf("unexpected status %d during drain race: %s", resp.StatusCode, body)
				}
			}
		}(g)
	}
	return &wg
}

// TestDrainAcceptRaceSingleNode floods a single node with submissions racing
// a drain. The regression class under test: a request admitted concurrently
// with Drain must still run to completion (Drain waits on taskWG), and a
// request arriving after the draining flag flips must get a clean 503 — an
// accepted-then-dropped run would strand its submitter forever.
func TestDrainAcceptRaceSingleNode(t *testing.T) {
	var execs atomic.Int64
	release := make(chan struct{})
	close(release) // every run completes instantly
	s := New(Config{Workers: 2, QueueDepth: 16})
	s.execute = blockingStub(&execs, release)
	ts := httptest.NewServer(s)
	defer ts.Close()

	stop := make(chan struct{})
	wg := drainFlood(t, ts.URL, stop)
	time.Sleep(20 * time.Millisecond) // let the flood establish
	if err := s.Drain(10 * time.Second); err != nil {
		t.Errorf("drain under flood: %v", err)
	}
	close(stop)
	wg.Wait()

	// Nothing the pool ever accepted may be left hanging: every jobState
	// reached its terminal close.
	s.pool.jobs.Range(func(_, v any) bool {
		js := v.(*jobState)
		select {
		case <-js.done:
		default:
			t.Errorf("run %s was accepted but never finished", js.id)
		}
		return true
	})
	if execs.Load() == 0 {
		t.Fatal("flood never reached the execute hook; the race was not exercised")
	}
}
