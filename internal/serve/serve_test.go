package serve

import (
	"context"
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

	"getm/internal/stats"
	"getm/internal/store"
)

// blockingStub returns an execute hook that parks every run on release and
// counts distinct executions. The hook honours ctx like the real engine.
func blockingStub(execs *atomic.Int64, release chan struct{}) func(context.Context, *jobState) (*stats.Metrics, string, error) {
	return func(ctx context.Context, js *jobState) (*stats.Metrics, string, error) {
		execs.Add(1)
		select {
		case <-release:
			m := stats.NewMetrics()
			m.TotalCycles = 4242
			m.Commits = 7
			return m, "run", nil
		case <-ctx.Done():
			return nil, "run", fmt.Errorf("stub canceled: %w", context.Cause(ctx))
		}
	}
}

func postRun(t *testing.T, url string, spec string) *http.Response {
	t.Helper()
	resp, err := http.Post(url+"/v1/runs", "application/json", strings.NewReader(spec))
	if err != nil {
		t.Fatal(err)
	}
	return resp
}

func decodeRun(t *testing.T, resp *http.Response) Response {
	t.Helper()
	defer resp.Body.Close()
	var out Response
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatalf("bad response JSON: %v", err)
	}
	return out
}

func getBody(t *testing.T, url string) (int, string) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	b, _ := io.ReadAll(resp.Body)
	return resp.StatusCode, string(b)
}

func TestSubmitValidation(t *testing.T) {
	s := New(Config{Workers: 1, QueueDepth: 1, MaxScale: 0.5})
	ts := httptest.NewServer(s)
	defer ts.Close()
	defer s.Drain(time.Second)

	for name, body := range map[string]string{
		"bad json":        `{"protocol":`,
		"bad protocol":    `{"protocol":"mesi","benchmark":"ht-h"}`,
		"bad benchmark":   `{"protocol":"getm","benchmark":"nope"}`,
		"scale too big":   `{"protocol":"getm","benchmark":"ht-h","scale":0.9}`,
		"negative conc":   `{"protocol":"getm","benchmark":"ht-h","scale":0.1,"conc":-1}`,
		"cores oversized": `{"protocol":"getm","benchmark":"ht-h","scale":0.1,"cores":57}`,
	} {
		resp := postRun(t, ts.URL, body)
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("%s: status %d, want 400", name, resp.StatusCode)
		}
		resp.Body.Close()
	}
}

// Saturation must shed load — 429 plus a Retry-After hint — and flip
// /readyz, recovering once the queue empties.
func TestQueueFullShedsLoadAndReadyzFlips(t *testing.T) {
	s := New(Config{Workers: 1, QueueDepth: 1})
	var execs atomic.Int64
	release := make(chan struct{})
	s.execute = blockingStub(&execs, release)
	ts := httptest.NewServer(s)
	defer ts.Close()

	if code, body := getBody(t, ts.URL+"/readyz"); code != http.StatusOK {
		t.Fatalf("idle readyz = %d %q, want 200", code, body)
	}

	// Three distinct async jobs: one runs, one waits, one is shed. Submit
	// the second only once the worker has dequeued the first, so the single
	// queue slot is deterministically free for it.
	spec := `{"protocol":"getm","benchmark":"ht-h","scale":0.1,"seed":%d,"async":true}`
	ids := make([]string, 0, 2)
	resp := postRun(t, ts.URL, fmt.Sprintf(spec, 1))
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit 1: status %d, want 202", resp.StatusCode)
	}
	ids = append(ids, decodeRun(t, resp).ID)
	// Wait on the execution itself: the worker counts itself running just
	// before it calls execute.
	deadline := time.Now().Add(5 * time.Second)
	for execs.Load() == 0 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if got := execs.Load(); got != 1 {
		t.Fatalf("%d executions with one worker, want 1", got)
	}
	resp = postRun(t, ts.URL, fmt.Sprintf(spec, 2))
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit 2: status %d, want 202", resp.StatusCode)
	}
	ids = append(ids, decodeRun(t, resp).ID)

	resp = postRun(t, ts.URL, fmt.Sprintf(spec, 3))
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("saturated submit: status %d, want 429", resp.StatusCode)
	}
	if ra := resp.Header.Get("Retry-After"); ra == "" {
		t.Error("429 without Retry-After header")
	}
	resp.Body.Close()

	if code, body := getBody(t, ts.URL+"/readyz"); code != http.StatusServiceUnavailable || !strings.Contains(body, "saturated") {
		t.Errorf("saturated readyz = %d %q, want 503 saturated", code, body)
	}

	close(release)
	for _, id := range ids {
		waitDone(t, s, id)
	}
	if code, _ := getBody(t, ts.URL+"/readyz"); code != http.StatusOK {
		t.Errorf("drained readyz = %d, want 200", code)
	}
	if err := s.Drain(5 * time.Second); err != nil {
		t.Fatalf("drain: %v", err)
	}
}

func waitDone(t *testing.T, s *Server, id string) Response {
	t.Helper()
	js, ok := s.pool.lookup(id)
	if !ok {
		t.Fatalf("unknown job %s", id)
	}
	select {
	case <-js.done:
	case <-time.After(10 * time.Second):
		t.Fatalf("job %s did not finish", id)
	}
	return s.snapshot(js)
}

// Identical concurrent submissions collapse onto one jobState and one
// execution; every client still gets the full result.
func TestIdenticalSubmissionsCollapse(t *testing.T) {
	s := New(Config{Workers: 2, QueueDepth: 8})
	var execs atomic.Int64
	release := make(chan struct{})
	s.execute = blockingStub(&execs, release)
	ts := httptest.NewServer(s)
	defer ts.Close()

	const n = 8
	spec := `{"protocol":"getm","benchmark":"ht-h","scale":0.1,"conc":4}`
	results := make([]Response, n)
	errs := make([]error, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		i := i
		wg.Add(1)
		go func() {
			defer wg.Done()
			resp, err := http.Post(ts.URL+"/v1/runs", "application/json", strings.NewReader(spec))
			if err != nil {
				errs[i] = err
				return
			}
			defer resp.Body.Close()
			if resp.StatusCode != http.StatusOK {
				errs[i] = fmt.Errorf("status %d", resp.StatusCode)
				return
			}
			errs[i] = json.NewDecoder(resp.Body).Decode(&results[i])
		}()
	}
	// Release once the single shared execution has started and every client
	// has had a chance to pile onto it.
	deadline := time.Now().Add(5 * time.Second)
	for execs.Load() == 0 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	time.Sleep(50 * time.Millisecond)
	close(release)
	wg.Wait()

	for i, err := range errs {
		if err != nil {
			t.Fatalf("client %d: %v", i, err)
		}
	}
	if got := execs.Load(); got != 1 {
		t.Fatalf("%d executions for %d identical submissions, want 1", execs.Load(), n)
	}
	id := results[0].ID
	for i, r := range results {
		if r.ID != id || r.Status != "done" || r.Metrics == nil || r.Metrics.TotalCycles != 4242 {
			t.Fatalf("client %d got %+v", i, r)
		}
	}
	if err := s.Drain(time.Second); err != nil {
		t.Fatal(err)
	}
}

// Draining refuses new work with 503 while letting the in-flight run finish;
// a drain that overstays its timeout cancels the work instead of hanging.
func TestDrainGracefulThenForced(t *testing.T) {
	s := New(Config{Workers: 1, QueueDepth: 4})
	var execs atomic.Int64
	release := make(chan struct{})
	s.execute = blockingStub(&execs, release)
	ts := httptest.NewServer(s)
	defer ts.Close()

	resp := postRun(t, ts.URL, `{"protocol":"getm","benchmark":"ht-h","scale":0.1,"async":true}`)
	id := decodeRun(t, resp).ID
	deadline := time.Now().Add(5 * time.Second)
	for execs.Load() == 0 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}

	drained := make(chan error, 1)
	go func() { drained <- s.Drain(30 * time.Second) }()
	for !s.pool.draining.Load() {
		time.Sleep(time.Millisecond)
	}

	// A late request is refused while the in-flight one is still running.
	late := postRun(t, ts.URL, `{"protocol":"getm","benchmark":"ht-h","scale":0.1,"seed":9}`)
	if late.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("late submit during drain: status %d, want 503", late.StatusCode)
	}
	late.Body.Close()
	if code, body := getBody(t, ts.URL+"/readyz"); code != http.StatusServiceUnavailable || !strings.Contains(body, "draining") {
		t.Errorf("draining readyz = %d %q", code, body)
	}

	// The in-flight run survives the drain and completes.
	close(release)
	if err := <-drained; err != nil {
		t.Fatalf("graceful drain returned %v", err)
	}
	if r := waitDone(t, s, id); r.Status != "done" || r.Metrics == nil {
		t.Fatalf("in-flight run did not survive the drain: %+v", r)
	}

	// Forced path: a fresh server whose run ignores release until canceled.
	s2 := New(Config{Workers: 1, QueueDepth: 4})
	var execs2 atomic.Int64
	s2.execute = blockingStub(&execs2, make(chan struct{})) // never released
	ts2 := httptest.NewServer(s2)
	defer ts2.Close()
	resp2 := postRun(t, ts2.URL, `{"protocol":"getm","benchmark":"ht-h","scale":0.1,"async":true}`)
	id2 := decodeRun(t, resp2).ID
	deadline = time.Now().Add(5 * time.Second)
	for execs2.Load() == 0 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	err := s2.Drain(50 * time.Millisecond)
	if err == nil {
		t.Fatal("forced drain reported success")
	}
	if r := waitDone(t, s2, id2); r.Status != "failed" || !strings.Contains(r.Error, "drain") {
		t.Fatalf("canceled run state = %+v", r)
	}
}

// The async lifecycle: 202 with id, observable queued/running states, done
// with metrics; unknown ids 404; completed cells resolve durably from the
// store even on a server that never ran them.
func TestAsyncStatusAndDurableStore(t *testing.T) {
	dir := t.TempDir()
	s := New(Config{Workers: 1, QueueDepth: 4, Store: store.Open(dir)})
	var execs atomic.Int64
	release := make(chan struct{})
	s.execute = blockingStub(&execs, release)
	ts := httptest.NewServer(s)
	defer ts.Close()

	resp := postRun(t, ts.URL, `{"protocol":"getm","benchmark":"ht-h","scale":0.1,"async":true}`)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("async submit: status %d, want 202", resp.StatusCode)
	}
	sub := decodeRun(t, resp)
	if sub.ID == "" || (sub.Status != "queued" && sub.Status != "running") {
		t.Fatalf("async ack = %+v", sub)
	}

	code, body := getBody(t, ts.URL+"/v1/runs/"+sub.ID)
	if code != http.StatusOK || !(strings.Contains(body, "queued") || strings.Contains(body, "running")) {
		t.Fatalf("pending status = %d %q", code, body)
	}
	close(release)
	waitDone(t, s, sub.ID)
	code, body = getBody(t, ts.URL+"/v1/runs/"+sub.ID)
	if code != http.StatusOK || !strings.Contains(body, `"done"`) || !strings.Contains(body, "4242") {
		t.Fatalf("done status = %d %q", code, body)
	}

	if code, _ := getBody(t, ts.URL+"/v1/runs/no-such-id"); code != http.StatusNotFound {
		t.Fatalf("unknown id status = %d, want 404", code)
	}

	// Durability: persist the result under the id's base key, then ask a
	// fresh server that has never executed anything.
	m := stats.NewMetrics()
	m.TotalCycles = 999
	if err := store.Open(dir).Put(baseID(sub.ID), "test", m); err != nil {
		t.Fatal(err)
	}
	s2 := New(Config{Workers: 1, QueueDepth: 4, Store: store.Open(dir)})
	ts2 := httptest.NewServer(s2)
	defer ts2.Close()
	code, body = getBody(t, ts2.URL+"/v1/runs/"+sub.ID)
	if code != http.StatusOK || !strings.Contains(body, `"store"`) || !strings.Contains(body, "999") {
		t.Fatalf("durable status = %d %q", code, body)
	}
	s.Drain(time.Second)
	s2.Drain(time.Second)
}

// /metrics exposes the serving counters in text exposition format.
func TestMetricsExposition(t *testing.T) {
	s := New(Config{Workers: 1, QueueDepth: 2})
	var execs atomic.Int64
	release := make(chan struct{})
	close(release) // run instantly
	s.execute = blockingStub(&execs, release)
	ts := httptest.NewServer(s)
	defer ts.Close()
	defer s.Drain(time.Second)

	resp := postRun(t, ts.URL, `{"protocol":"getm","benchmark":"ht-h","scale":0.1}`)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("submit: %d", resp.StatusCode)
	}
	resp.Body.Close()

	code, body := getBody(t, ts.URL+"/metrics")
	if code != http.StatusOK {
		t.Fatalf("/metrics = %d", code)
	}
	for _, want := range []string{
		"getm_serve_queue_depth 0",
		"getm_serve_queue_capacity 2",
		"getm_serve_workers 1",
		"getm_serve_requests_total 1",
		"getm_serve_completed_total 1",
		"getm_serve_rejected_total 0",
		"getm_serve_simulated_total",
		"getm_serve_store_hits_total",
		`getm_serve_run_latency_seconds{quantile="0.5"}`,
		`getm_serve_run_latency_seconds{quantile="0.99"}`,
		"getm_serve_run_latency_seconds_count 1",
		"# TYPE getm_serve_queue_depth gauge",
		"# TYPE getm_serve_requests_total counter",
		"# TYPE getm_serve_run_latency_seconds summary",
	} {
		if !strings.Contains(body, want) {
			t.Errorf("/metrics missing %q:\n%s", want, body)
		}
	}
}

// A real run that outlives its timeout_ms answers 408, status failed, with
// no metrics: the runner hands a canceled run's partial metrics back with
// the error, and a failed job's body never carries them.
func TestTimedOutRunCarriesNoMetrics(t *testing.T) {
	s := New(Config{Workers: 1, QueueDepth: 2})
	ts := httptest.NewServer(s)
	defer ts.Close()
	defer s.Drain(10 * time.Second)

	resp := postRun(t, ts.URL, `{"protocol":"getm","benchmark":"ap","scale":1,"timeout_ms":20}`)
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusRequestTimeout {
		t.Fatalf("status %d, want 408: %s", resp.StatusCode, body)
	}
	var got Response
	if err := json.Unmarshal(body, &got); err != nil {
		t.Fatal(err)
	}
	if got.Status != "failed" || strings.Contains(string(body), `"metrics"`) || got.Truncated {
		t.Fatalf("timed-out run answered %s, want status failed and no metrics", body)
	}
}

// A budgeted request gets a distinct id from the unbudgeted cell, and its
// truncated result is reported as such, never persisted.
func TestBudgetedRequestTruncated(t *testing.T) {
	dir := t.TempDir()
	s := New(Config{Workers: 1, QueueDepth: 2, Store: store.Open(dir)})
	s.execute = func(ctx context.Context, js *jobState) (*stats.Metrics, string, error) {
		m := stats.NewMetrics()
		m.TotalCycles = js.spec.CycleBudget
		m.Truncated = js.spec.CycleBudget != 0
		return m, "run", nil
	}
	ts := httptest.NewServer(s)
	defer ts.Close()
	defer s.Drain(time.Second)

	full := decodeRun(t, postRun(t, ts.URL, `{"protocol":"getm","benchmark":"ht-h","scale":0.1}`))
	budgeted := decodeRun(t, postRun(t, ts.URL, `{"protocol":"getm","benchmark":"ht-h","scale":0.1,"cycle_budget":5000}`))
	if full.ID == budgeted.ID {
		t.Fatal("budgeted and unbudgeted requests share an id")
	}
	if baseID(budgeted.ID) != full.ID {
		t.Fatalf("budgeted id %q does not derive from base %q", budgeted.ID, full.ID)
	}
	if !budgeted.Truncated || budgeted.Metrics == nil || !budgeted.Metrics.Truncated {
		t.Fatalf("budgeted response not marked truncated: %+v", budgeted)
	}
	if full.Truncated {
		t.Fatalf("full response marked truncated: %+v", full)
	}
}
