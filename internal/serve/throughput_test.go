package serve

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"getm/internal/stats"
	"getm/internal/store"
)

// instantStub completes immediately with fixed metrics, counting executions.
func instantStub(execs *atomic.Int64) func(context.Context, *jobState) (*stats.Metrics, string, error) {
	return func(ctx context.Context, js *jobState) (*stats.Metrics, string, error) {
		execs.Add(1)
		m := stats.NewMetrics()
		m.TotalCycles = 4242
		m.Commits = 7
		return m, "run", nil
	}
}

func postBatch(t *testing.T, url, body string, hdr map[string]string) *http.Response {
	t.Helper()
	req, err := http.NewRequest("POST", url+"/v1/runs/batch", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/json")
	for k, v := range hdr {
		req.Header.Set(k, v)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	return resp
}

// The batch endpoint admits N specs in one round trip, collapses repeats
// onto one execution, and returns one response per spec in order.
func TestBatchSubmitCollapsesAndOrders(t *testing.T) {
	s := New(Config{Workers: 2, QueueDepth: 16})
	var execs atomic.Int64
	s.execute = instantStub(&execs)
	ts := httptest.NewServer(s)
	defer ts.Close()
	defer s.Drain(time.Second)

	// 6 entries, 2 distinct specs, one invalid in the middle.
	batch := `[
		{"protocol":"getm","benchmark":"ht-h","scale":0.1},
		{"protocol":"getm","benchmark":"ht-h","scale":0.1},
		{"protocol":"nope","benchmark":"ht-h"},
		{"protocol":"getm","benchmark":"ht-h","scale":0.1,"seed":9},
		{"protocol":"getm","benchmark":"ht-h","scale":0.1},
		{"protocol":"getm","benchmark":"ht-h","scale":0.1,"seed":9}
	]`
	resp := postBatch(t, ts.URL, batch, nil)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("batch status %d, want 200", resp.StatusCode)
	}
	defer resp.Body.Close()
	var out []Response
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatalf("batch response not a JSON array: %v", err)
	}
	if len(out) != 6 {
		t.Fatalf("batch returned %d entries for 6 specs", len(out))
	}
	if out[2].Status != "invalid" || !strings.Contains(out[2].Error, "protocol") {
		t.Fatalf("invalid spec entry = %+v", out[2])
	}
	for _, i := range []int{0, 1, 3, 4, 5} {
		if out[i].Status != "done" || out[i].Metrics == nil || out[i].Metrics.TotalCycles != 4242 {
			t.Fatalf("entry %d = %+v, want done with metrics", i, out[i])
		}
	}
	if out[0].ID != out[1].ID || out[0].ID != out[4].ID || out[3].ID != out[5].ID || out[0].ID == out[3].ID {
		t.Fatalf("batch ids wrong: %s %s %s %s", out[0].ID, out[1].ID, out[3].ID, out[5].ID)
	}
	if got := execs.Load(); got != 2 {
		t.Fatalf("%d executions for 2 distinct specs, want 2", got)
	}
	if shed := resp.Header.Get("X-Getm-Shed"); shed != "0" {
		t.Fatalf("X-Getm-Shed = %q, want 0", shed)
	}
}

func TestBatchRejectsEmptyAndOversized(t *testing.T) {
	s := New(Config{Workers: 1, QueueDepth: 2})
	ts := httptest.NewServer(s)
	defer ts.Close()
	defer s.Drain(time.Second)

	if resp := postBatch(t, ts.URL, `[]`, nil); resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("empty batch status %d, want 400", resp.StatusCode)
	} else {
		resp.Body.Close()
	}
	big := `[` + strings.Repeat(`{"protocol":"getm","benchmark":"ht-h"},`, maxBatch) +
		`{"protocol":"getm","benchmark":"ht-h"}]`
	if resp := postBatch(t, ts.URL, big, nil); resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("oversized batch status %d, want 400", resp.StatusCode)
	} else {
		resp.Body.Close()
	}
}

// Per-client quota sheds over-rate submissions with 429 + Retry-After ≥ 1
// while an independent client keeps being admitted.
func TestQuotaShedsOverHTTP(t *testing.T) {
	s := New(Config{Workers: 2, QueueDepth: 16, QuotaRPS: 0.001, QuotaBurst: 2})
	var execs atomic.Int64
	s.execute = instantStub(&execs)
	ts := httptest.NewServer(s)
	defer ts.Close()
	defer s.Drain(time.Second)

	send := func(client string, seed int) *http.Response {
		req, _ := http.NewRequest("POST", ts.URL+"/v1/runs", strings.NewReader(
			fmt.Sprintf(`{"protocol":"getm","benchmark":"ht-h","scale":0.1,"seed":%d}`, seed)))
		req.Header.Set("X-Client-ID", client)
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		return resp
	}

	for i := 1; i <= 2; i++ {
		resp := send("greedy", i)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("within-burst request %d: status %d", i, resp.StatusCode)
		}
		resp.Body.Close()
	}
	resp := send("greedy", 3)
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("over-quota status %d, want 429", resp.StatusCode)
	}
	ra, err := strconv.Atoi(resp.Header.Get("Retry-After"))
	if err != nil || ra < 1 {
		t.Fatalf("over-quota Retry-After %q, want integer >= 1", resp.Header.Get("Retry-After"))
	}
	resp.Body.Close()

	other := send("patient", 4)
	if other.StatusCode != http.StatusOK {
		t.Fatalf("independent client shed by greedy's quota: status %d", other.StatusCode)
	}
	other.Body.Close()

	code, body := getBody(t, ts.URL+"/metrics")
	if code != http.StatusOK || !strings.Contains(body, "getm_serve_quota_rejected_total 1") {
		t.Fatalf("quota rejection not counted:\n%s", body)
	}
}

// Repeat traffic for a completed run takes the lock-free fast path: same id,
// same body, zero extra executions, deduped counter moving.
func TestFastPathJoinsCompletedJob(t *testing.T) {
	s := New(Config{Workers: 1, QueueDepth: 4})
	var execs atomic.Int64
	s.execute = instantStub(&execs)
	ts := httptest.NewServer(s)
	defer ts.Close()
	defer s.Drain(time.Second)

	spec := `{"protocol":"getm","benchmark":"ht-h","scale":0.1}`
	first := decodeRun(t, postRun(t, ts.URL, spec))
	if first.Status != "done" {
		t.Fatalf("first run = %+v", first)
	}
	for i := 0; i < 5; i++ {
		again := decodeRun(t, postRun(t, ts.URL, spec))
		if again.ID != first.ID || again.Status != "done" || again.Metrics == nil ||
			again.Metrics.TotalCycles != first.Metrics.TotalCycles {
			t.Fatalf("repeat %d = %+v, want the completed job's result", i, again)
		}
	}
	if got := execs.Load(); got != 1 {
		t.Fatalf("%d executions after repeats, want 1", got)
	}
	if got := s.met.deduped.Load(); got < 5 {
		t.Fatalf("deduped counter %d, want >= 5", got)
	}
}

// Satellite: the coalescer participates in graceful drain. A server with an
// hour-long flush interval acknowledges a run; nothing is on disk until
// Drain, whose final flush persists it; a restarted server resolves the id
// from the store. No acknowledged run is lost to a SIGTERM.
func TestDrainFlushesCoalescerNoAcknowledgedRunLost(t *testing.T) {
	dir := t.TempDir()
	cfg := Config{
		Workers: 1, QueueDepth: 4, Store: store.Open(dir),
		FlushInterval:  time.Hour, // interval never fires: only Drain's final flush persists
		FlushHighWater: 1 << 30,
	}
	s := New(cfg)
	ts := httptest.NewServer(s)
	defer ts.Close()

	// Real execute path (tiny workload) so the runner's Persist hook —
	// wired to the coalescer — actually fires.
	resp := postRun(t, ts.URL, `{"protocol":"getm","benchmark":"ht-h","scale":0.02}`)
	ack := decodeRun(t, resp)
	if ack.Status != "done" || ack.ID == "" {
		t.Fatalf("run not acknowledged: %+v", ack)
	}

	if _, ok := store.Open(dir).Get(baseID(ack.ID)); ok {
		t.Fatal("result on disk before any flush — coalescing is not deferring writes")
	}
	if n := s.coal.pendingCount(); n != 1 {
		t.Fatalf("%d pending records after one acknowledged run, want 1", n)
	}

	if err := s.Drain(10 * time.Second); err != nil {
		t.Fatalf("drain: %v", err)
	}
	if _, ok := store.Open(dir).Get(baseID(ack.ID)); !ok {
		t.Fatal("acknowledged run lost across drain — final flush missing")
	}

	// Restart: a fresh server resolves the id durably from the store.
	s2 := New(Config{Workers: 1, QueueDepth: 4, Store: store.Open(dir)})
	ts2 := httptest.NewServer(s2)
	defer ts2.Close()
	defer s2.Drain(time.Second)
	code, body := getBody(t, ts2.URL+"/v1/runs/"+ack.ID)
	if code != http.StatusOK || !strings.Contains(body, `"store"`) {
		t.Fatalf("restarted server could not resolve acknowledged id: %d %q", code, body)
	}
}

// promSample is one parsed exposition series (name includes its label set).
type promSample struct {
	name   string // full series name, labels included
	family string // metric family owning the HELP/TYPE comments
	value  float64
	typ    string // from the preceding # TYPE line
}

// promFamily resolves a sample's metric family: the bare name with any label
// set stripped, and — for summary families — the _sum/_count suffixes folded
// back onto the base family, exactly as the exposition format defines them.
func promFamily(name string, types map[string]string) string {
	base := name
	if i := strings.IndexByte(base, '{'); i >= 0 {
		base = base[:i]
	}
	if _, ok := types[base]; ok {
		return base
	}
	for _, suf := range []string{"_sum", "_count"} {
		if fam, found := strings.CutSuffix(base, suf); found {
			if types[fam] == "summary" {
				return fam
			}
		}
	}
	return base
}

// parseProm strictly parses the Prometheus text exposition format used by
// /metrics: every non-comment line must be `name[{labels}] value` with a
// float value, every family must carry # HELP and # TYPE comments (counter,
// gauge, or summary), and series names (labels included) must be unique.
func parseProm(t *testing.T, body string) map[string]promSample {
	t.Helper()
	out := make(map[string]promSample)
	types := make(map[string]string)
	helps := make(map[string]bool)
	for ln, line := range strings.Split(strings.TrimRight(body, "\n"), "\n") {
		if line == "" {
			t.Fatalf("line %d: empty line in exposition", ln+1)
		}
		if strings.HasPrefix(line, "# HELP ") {
			parts := strings.SplitN(line[len("# HELP "):], " ", 2)
			if len(parts) != 2 || parts[0] == "" || parts[1] == "" {
				t.Fatalf("line %d: malformed HELP %q", ln+1, line)
			}
			helps[parts[0]] = true
			continue
		}
		if strings.HasPrefix(line, "# TYPE ") {
			parts := strings.Fields(line[len("# TYPE "):])
			if len(parts) != 2 || (parts[1] != "counter" && parts[1] != "gauge" && parts[1] != "summary") {
				t.Fatalf("line %d: malformed TYPE %q", ln+1, line)
			}
			types[parts[0]] = parts[1]
			continue
		}
		if strings.HasPrefix(line, "#") {
			t.Fatalf("line %d: unknown comment %q", ln+1, line)
		}
		fields := strings.Fields(line)
		if len(fields) != 2 {
			t.Fatalf("line %d: sample %q is not `name value`", ln+1, line)
		}
		v, err := strconv.ParseFloat(fields[1], 64)
		if err != nil {
			t.Fatalf("line %d: value %q not a float: %v", ln+1, fields[1], err)
		}
		name := fields[0]
		if i := strings.IndexByte(name, '{'); i >= 0 && !strings.HasSuffix(name, "}") {
			t.Fatalf("line %d: malformed label set in %q", ln+1, name)
		}
		if _, dup := out[name]; dup {
			t.Fatalf("line %d: duplicate series %s", ln+1, name)
		}
		family := promFamily(name, types)
		if !helps[family] {
			t.Fatalf("line %d: %s has no # HELP", ln+1, name)
		}
		typ, ok := types[family]
		if !ok {
			t.Fatalf("line %d: %s has no # TYPE", ln+1, name)
		}
		out[name] = promSample{name: name, family: family, value: v, typ: typ}
	}
	return out
}

// Satellite: the full exposition parses strictly, counters carry counter
// types, and every counter is monotone non-decreasing across scrapes under
// live traffic.
func TestMetricsStrictFormatAndMonotoneCounters(t *testing.T) {
	s := New(Config{Workers: 2, QueueDepth: 8, QuotaRPS: 1000})
	var execs atomic.Int64
	s.execute = instantStub(&execs)
	ts := httptest.NewServer(s)
	defer ts.Close()
	defer s.Drain(time.Second)

	scrape := func() map[string]promSample {
		code, body := getBody(t, ts.URL+"/metrics")
		if code != http.StatusOK {
			t.Fatalf("/metrics = %d", code)
		}
		return parseProm(t, body)
	}

	prev := scrape()
	for _, name := range []string{
		"getm_serve_requests_total", "getm_serve_batches_total",
		"getm_serve_quota_rejected_total", "getm_serve_deduped_total",
		"getm_serve_http_latency_seconds_count", "getm_serve_fair_clients",
		"getm_serve_quota_clients", "getm_serve_goroutines",
		"getm_serve_heap_alloc_bytes", "getm_serve_slo_slow_runs_total",
		`getm_serve_stage_latency_seconds{stage="queue",quantile="0.5"}`,
	} {
		if _, ok := prev[name]; !ok {
			t.Errorf("exposition missing %s", name)
		}
	}

	for round := 0; round < 3; round++ {
		// Mixed traffic between scrapes: singles, repeats, a batch.
		for i := 0; i < 3; i++ {
			resp := postRun(t, ts.URL, fmt.Sprintf(`{"protocol":"getm","benchmark":"ht-h","scale":0.1,"seed":%d}`, round*3+i+1))
			resp.Body.Close()
		}
		resp := postBatch(t, ts.URL, `[{"protocol":"getm","benchmark":"ht-h","scale":0.1,"seed":1},{"protocol":"getm","benchmark":"ht-h","scale":0.1,"seed":2}]`, nil)
		resp.Body.Close()

		cur := scrape()
		for name, p := range prev {
			c, ok := cur[name]
			if !ok {
				t.Fatalf("scrape %d: metric %s disappeared", round, name)
			}
			if c.typ != p.typ {
				t.Fatalf("scrape %d: %s changed type %s -> %s", round, name, p.typ, c.typ)
			}
			if p.typ == "counter" && c.value < p.value {
				t.Fatalf("scrape %d: counter %s went backward: %v -> %v", round, name, p.value, c.value)
			}
		}
		prev = cur
	}
	if prev["getm_serve_requests_total"].value < 9+6 {
		t.Fatalf("requests_total %v after 9 singles + 3 batches of 2, want >= 15", prev["getm_serve_requests_total"].value)
	}
	if prev["getm_serve_batches_total"].value != 3 {
		t.Fatalf("batches_total %v, want 3", prev["getm_serve_batches_total"].value)
	}
}

// Satellite: the queue-drain Retry-After estimate is never below one second
// (sub-second mean latencies must not produce Retry-After: 0).
func TestRetryAfterSecondsFloor(t *testing.T) {
	s := New(Config{Workers: 4, QueueDepth: 64})
	defer s.Drain(time.Second)
	// No traffic yet: mean latency 0.
	if got := s.retryAfterSeconds(); got < 1 {
		t.Fatalf("retryAfterSeconds with no data = %d, want >= 1", got)
	}
	// Sub-millisecond latencies: 64 queued / 4 workers * ~0ms rounds to 0s
	// without the clamp.
	s.met.observe(200*time.Microsecond, nil, nil)
	s.met.observe(300*time.Microsecond, nil, nil)
	if got := s.retryAfterSeconds(); got < 1 {
		t.Fatalf("retryAfterSeconds with sub-second mean = %d, want >= 1", got)
	}
}
