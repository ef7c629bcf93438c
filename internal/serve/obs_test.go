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

// Satellite: every /metrics family obeys the Prometheus naming conventions —
// counters end in _total, durations are base-unit seconds (no _ms_ names),
// sizes are bytes, gauges never borrow the _total suffix — enforced on a
// live scrape so a new metric cannot regress the exposition.
func TestMetricsLintConventions(t *testing.T) {
	s := New(Config{Workers: 2, QueueDepth: 8, QuotaRPS: 1000, Spans: true})
	var execs atomic.Int64
	s.execute = instantStub(&execs)
	ts := httptest.NewServer(s)
	defer ts.Close()
	defer s.Drain(time.Second)

	// Traffic first, so per-client and latency families materialize.
	resp := postRun(t, ts.URL, `{"protocol":"getm","benchmark":"ht-h","scale":0.1}`)
	resp.Body.Close()

	code, body := getBody(t, ts.URL+"/metrics")
	if code != http.StatusOK {
		t.Fatalf("/metrics = %d", code)
	}
	samples := parseProm(t, body)
	if len(samples) == 0 {
		t.Fatal("empty exposition")
	}
	for name, sm := range samples {
		fam := sm.family
		if !strings.HasPrefix(fam, "getm_serve_") {
			t.Errorf("%s: family %s outside the getm_serve_ namespace", name, fam)
		}
		if strings.Contains(fam, "_ms_") || strings.HasSuffix(fam, "_ms") ||
			strings.Contains(fam, "_us_") || strings.HasSuffix(fam, "_us") {
			t.Errorf("%s: non-base-unit duration name (want _seconds)", fam)
		}
		switch sm.typ {
		case "counter":
			if !strings.HasSuffix(fam, "_total") {
				t.Errorf("counter %s does not end in _total", fam)
			}
		case "gauge":
			if strings.HasSuffix(fam, "_total") {
				t.Errorf("gauge %s must not end in _total", fam)
			}
		case "summary":
			if !strings.HasSuffix(fam, "_seconds") {
				t.Errorf("summary %s is a latency family and must end in _seconds", fam)
			}
		}
	}
	// The stage summary carries all three stages.
	for _, stage := range []string{"queue", "sim", "persist"} {
		key := fmt.Sprintf(`getm_serve_stage_latency_seconds{stage=%q,quantile="0.99"}`, stage)
		if _, ok := samples[key]; !ok {
			t.Errorf("exposition missing %s", key)
		}
	}
}

// Satellite: /metrics declares the text exposition content type, version
// included, pinned here next to the strict parser.
func TestMetricsContentType(t *testing.T) {
	s := New(Config{Workers: 1, QueueDepth: 2})
	defer s.Drain(time.Second)
	ts := httptest.NewServer(s)
	defer ts.Close()

	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	const want = "text/plain; version=0.0.4; charset=utf-8"
	if got := resp.Header.Get("Content-Type"); got != want {
		t.Fatalf("/metrics Content-Type = %q, want %q", got, want)
	}
}

// Zero-alloc gates, PR 3 TestEmitDisabledZeroAlloc style: with spans
// disabled the emit guard is one pointer compare, and the always-on
// stage/client accounting must not allocate per request either. The enabled
// emit path is also gated — records are written in place into the
// preallocated ring, ids interned.
func TestSpanDisabledZeroAlloc(t *testing.T) {
	s := New(Config{Workers: 1, QueueDepth: 2}) // spans off
	defer s.Drain(time.Second)
	if s.spans != nil {
		t.Fatal("spans unexpectedly enabled")
	}
	if n := testing.AllocsPerRun(1000, func() {
		s.span(stageReceive, "client-a", "run-1", 1, 2)
	}); n != 0 {
		t.Fatalf("disabled span emit allocates %v bytes/op, want 0", n)
	}
	if n := testing.AllocsPerRun(1000, func() {
		s.met.observeStages(time.Millisecond, 2*time.Millisecond, time.Microsecond)
	}); n != 0 {
		t.Fatalf("observeStages allocates %v/op, want 0", n)
	}
	s.met.clientRequest("client-a", 1) // materialize the row
	if n := testing.AllocsPerRun(1000, func() {
		s.met.clientRequest("client-a", 1)
		s.met.clientShed("client-a", 1)
	}); n != 0 {
		t.Fatalf("client accounting allocates %v/op for an existing client, want 0", n)
	}
}

func TestSpanEnabledEmitZeroAlloc(t *testing.T) {
	rec := newSpanRecorder(1 << 10)
	rec.emit(stageReceive, "client-a", "run-1", 0, 0) // intern both ids
	if n := testing.AllocsPerRun(1000, func() {
		rec.emit(stageSimFinish, "client-a", "run-1", 123, 456)
	}); n != 0 {
		t.Fatalf("enabled span emit allocates %v/op for interned ids, want 0", n)
	}
}

// Satellite: the span recorder under concurrent serve traffic — N clients
// hammering the batch endpoint under -race — loses no lifecycle records and
// duplicates none: sequence numbers are dense and unique, and the per-stage
// record counts match the known request counts exactly.
func TestSpanRecorderConcurrentNoLoss(t *testing.T) {
	const (
		nClients = 8
		nBatches = 5
		perBatch = 8
	)
	s := New(Config{Workers: 4, QueueDepth: 1024, Spans: true, SpanRing: 1 << 16})
	var execs atomic.Int64
	s.execute = instantStub(&execs)
	ts := httptest.NewServer(s)
	defer ts.Close()
	defer s.Drain(time.Second)

	var wg sync.WaitGroup
	for c := 0; c < nClients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for b := 0; b < nBatches; b++ {
				var specs []string
				for i := 0; i < perBatch; i++ {
					// Distinct seeds: every item is a fresh admission.
					specs = append(specs, fmt.Sprintf(
						`{"protocol":"getm","benchmark":"ht-h","scale":0.1,"seed":%d}`,
						c*100000+b*1000+i+1))
				}
				resp := postBatch(t, ts.URL, "["+strings.Join(specs, ",")+"]",
					map[string]string{"X-Client-ID": fmt.Sprintf("client-%d", c)})
				if resp.StatusCode != http.StatusOK {
					t.Errorf("batch: %d", resp.StatusCode)
				}
				if resp.Header.Get("X-Getm-Shed") != "0" {
					t.Errorf("unexpected shedding: %s", resp.Header.Get("X-Getm-Shed"))
				}
				// Read the body to EOF before closing: the handler records
				// its respond span after writing the body, and a body larger
				// than the response buffer sends the headers mid-write, so
				// only EOF (sent once the handler returns) orders the span
				// before the count below.
				if _, err := io.Copy(io.Discard, resp.Body); err != nil {
					t.Errorf("batch body: %v", err)
				}
				resp.Body.Close()
			}
		}(c)
	}
	wg.Wait()

	recs, _, _ := s.spans.snapshot()
	if d := s.spans.dropped(); d != 0 {
		t.Fatalf("%d records dropped despite oversized ring", d)
	}
	if uint64(len(recs)) != s.spans.total() {
		t.Fatalf("snapshot %d records, recorder total %d", len(recs), s.spans.total())
	}
	seen := make(map[uint64]bool, len(recs))
	var maxSeq uint64
	stageCount := make(map[spanStage]int)
	for _, r := range recs {
		if seen[r.Seq] {
			t.Fatalf("duplicate seq %d", r.Seq)
		}
		seen[r.Seq] = true
		if r.Seq > maxSeq {
			maxSeq = r.Seq
		}
		stageCount[r.Stage]++
	}
	if want := uint64(len(recs) - 1); maxSeq != want {
		t.Fatalf("seq not dense: max %d over %d records", maxSeq, len(recs))
	}

	const totalJobs = nClients * nBatches * perBatch
	if got := stageCount[stageReceive]; got != nClients*nBatches {
		t.Errorf("receive records = %d, want %d", got, nClients*nBatches)
	}
	if got := stageCount[stageRespond]; got != nClients*nBatches {
		t.Errorf("respond records = %d, want %d", got, nClients*nBatches)
	}
	for _, st := range []spanStage{stageMiss, stageEnqueue, stageDequeue, stageSimStart, stageSimFinish} {
		if got := stageCount[st]; got != totalJobs {
			t.Errorf("%s records = %d, want %d", st, got, totalJobs)
		}
	}
	if got := int(execs.Load()); got != totalJobs {
		t.Fatalf("stub executed %d jobs, want %d", got, totalJobs)
	}
}

// The intern tables stay bounded: client-id cardinality beyond the cap
// collapses onto index 0 instead of growing server memory.
func TestSpanInternBounded(t *testing.T) {
	rec := newSpanRecorder(1 << 8)
	for i := 0; i < 3*spanInternCap; i++ {
		rec.emit(stageReceive, fmt.Sprintf("client-%d", i), "", 0, 0)
	}
	rec.mu.Lock()
	defer rec.mu.Unlock()
	if len(rec.clients.rev) > spanInternCap {
		t.Fatalf("client intern table grew to %d, cap %d", len(rec.clients.rev), spanInternCap)
	}
}

// Satellite: the timings header round-trips — a sync submit with spans
// enabled carries X-Getm-Timings, its values parse, and they agree with
// GET /v1/runs/{id}/timings.
func TestTimingsHeaderRoundTrip(t *testing.T) {
	s := New(Config{Workers: 1, QueueDepth: 4, Spans: true})
	var execs atomic.Int64
	s.execute = instantStub(&execs)
	ts := httptest.NewServer(s)
	defer ts.Close()
	defer s.Drain(time.Second)

	resp := postRun(t, ts.URL, `{"protocol":"getm","benchmark":"ht-h","scale":0.1}`)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("submit: %d", resp.StatusCode)
	}
	hdr := resp.Header.Get("X-Getm-Timings")
	var out Response
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	q, sim, pers, err := parseTimings(hdr)
	if err != nil {
		t.Fatalf("X-Getm-Timings %q: %v", hdr, err)
	}
	if q < 0 || sim < 0 || pers < 0 {
		t.Fatalf("negative stage timing in %q", hdr)
	}

	code, body := getBody(t, ts.URL+"/v1/runs/"+out.ID+"/timings")
	if code != http.StatusOK {
		t.Fatalf("timings endpoint = %d: %s", code, body)
	}
	var tm Timings
	if err := json.Unmarshal([]byte(body), &tm); err != nil {
		t.Fatal(err)
	}
	if tm.ID != out.ID || tm.Status != "done" {
		t.Fatalf("timings = %+v, want done for %s", tm, out.ID)
	}
	if tm.QueueUS != q || tm.SimUS != sim || tm.PersistUS != pers {
		t.Fatalf("endpoint (%d,%d,%d) disagrees with header (%d,%d,%d)",
			tm.QueueUS, tm.SimUS, tm.PersistUS, q, sim, pers)
	}

	// Unknown ids 404.
	code, _ = getBody(t, ts.URL+"/v1/runs/nope/timings")
	if code != http.StatusNotFound {
		t.Fatalf("unknown id timings = %d, want 404", code)
	}
}

// Without spans the response must not carry the header (the hot path stays
// byte-identical to the pre-observability server).
func TestTimingsHeaderAbsentWhenDisabled(t *testing.T) {
	s := New(Config{Workers: 1, QueueDepth: 4})
	var execs atomic.Int64
	s.execute = instantStub(&execs)
	ts := httptest.NewServer(s)
	defer ts.Close()
	defer s.Drain(time.Second)

	resp := postRun(t, ts.URL, `{"protocol":"getm","benchmark":"ht-h","scale":0.1}`)
	defer resp.Body.Close()
	if h := resp.Header.Get("X-Getm-Timings"); h != "" {
		t.Fatalf("X-Getm-Timings %q present with spans disabled", h)
	}
	code, _ := getBody(t, ts.URL+"/v1/spans")
	if code != http.StatusNotFound {
		t.Fatalf("/v1/spans = %d with spans disabled, want 404", code)
	}
}

// parseTimings parses "queue=<µs>;sim=<µs>;persist=<µs>".
func parseTimings(h string) (queue, sim, persist int64, err error) {
	for _, part := range strings.Split(h, ";") {
		k, v, ok := strings.Cut(part, "=")
		if !ok {
			return 0, 0, 0, fmt.Errorf("malformed part %q", part)
		}
		var n int64
		if _, err := fmt.Sscanf(v, "%d", &n); err != nil {
			return 0, 0, 0, err
		}
		switch k {
		case "queue":
			queue = n
		case "sim":
			sim = n
		case "persist":
			persist = n
		default:
			return 0, 0, 0, fmt.Errorf("unknown stage %q", k)
		}
	}
	return queue, sim, persist, nil
}

// The span export formats render: perfetto parses as JSON with serve
// lifecycle events, csv has the header row, text is line-per-record.
func TestSpanExportFormats(t *testing.T) {
	s := New(Config{Workers: 1, QueueDepth: 4, Spans: true})
	var execs atomic.Int64
	s.execute = instantStub(&execs)
	ts := httptest.NewServer(s)
	defer ts.Close()
	defer s.Drain(time.Second)

	resp := postRun(t, ts.URL, `{"protocol":"getm","benchmark":"ht-h","scale":0.1}`)
	resp.Body.Close()

	code, body := getBody(t, ts.URL+"/v1/spans?format=perfetto")
	if code != http.StatusOK {
		t.Fatalf("perfetto export = %d", code)
	}
	var doc struct {
		TraceEvents []struct {
			Name string `json:"name"`
			Ph   string `json:"ph"`
			Pid  int    `json:"pid"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal([]byte(body), &doc); err != nil {
		t.Fatalf("perfetto export not JSON: %v", err)
	}
	stages := make(map[string]bool)
	for _, e := range doc.TraceEvents {
		if e.Pid == servePid {
			stages[e.Name] = true
		}
	}
	for _, want := range []string{"receive", "miss", "dequeue", "sim_finish", "respond"} {
		if !stages[want] {
			t.Errorf("perfetto export missing serve stage %q (have %v)", want, stages)
		}
	}

	code, body = getBody(t, ts.URL+"/v1/spans?format=csv")
	if code != http.StatusOK || !strings.HasPrefix(body, "us,seq,stage,client,run,a,b\n") {
		t.Fatalf("csv export = %d %q", code, body[:min(len(body), 80)])
	}
	code, body = getBody(t, ts.URL+"/v1/spans?format=text")
	if code != http.StatusOK || !strings.Contains(body, "sim_finish") {
		t.Fatalf("text export = %d %q", code, body[:min(len(body), 80)])
	}
	code, _ = getBody(t, ts.URL+"/v1/spans?format=nope")
	if code != http.StatusBadRequest {
		t.Fatalf("unknown format = %d, want 400", code)
	}
}

// Acceptance: with spans enabled and a real simulation behind the serve
// path, one Perfetto export holds both the serve lifecycle spans and the
// sim-level engine events for the same run id — the request and the engine
// work it triggered on a single timeline.
func TestSpansPerfettoJoinsServeAndSim(t *testing.T) {
	if testing.Short() {
		t.Skip("runs a real simulation")
	}
	s := New(Config{Workers: 1, QueueDepth: 4, Spans: true})
	ts := httptest.NewServer(s)
	defer ts.Close()
	defer s.Drain(5 * time.Second)

	resp := postRun(t, ts.URL, `{"protocol":"getm","benchmark":"ht-h","scale":0.02}`)
	out := decodeRun(t, resp)
	if out.Status != "done" {
		t.Fatalf("run = %+v", out)
	}

	code, body := getBody(t, ts.URL+"/v1/spans?format=perfetto")
	if code != http.StatusOK {
		t.Fatalf("export = %d", code)
	}
	var doc struct {
		TraceEvents []struct {
			Name string         `json:"name"`
			Ph   string         `json:"ph"`
			Pid  int            `json:"pid"`
			Args map[string]any `json:"args"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal([]byte(body), &doc); err != nil {
		t.Fatal(err)
	}
	serveSpanForRun, simEvents := false, false
	for _, e := range doc.TraceEvents {
		if e.Pid == servePid && e.Name == "sim_finish" {
			if run, _ := e.Args["run"].(string); run == out.ID {
				serveSpanForRun = true
			}
		}
		if e.Pid >= simTracePidBase && e.Ph != "M" {
			simEvents = true
		}
	}
	if !serveSpanForRun {
		t.Errorf("no serve lifecycle span tagged with run id %s", out.ID)
	}
	if !simEvents {
		t.Errorf("no sim-level events in the joint export")
	}
	// The same run id names a sim process in the document.
	if !strings.Contains(body, `"run `+out.ID[:12]) {
		t.Errorf("sim recorder process for run %s missing", out.ID)
	}
}

// pprof mounts only behind the flag.
func TestPprofGated(t *testing.T) {
	off := New(Config{Workers: 1, QueueDepth: 2})
	defer off.Drain(time.Second)
	tsOff := httptest.NewServer(off)
	defer tsOff.Close()
	if code, _ := getBody(t, tsOff.URL+"/debug/pprof/cmdline"); code != http.StatusNotFound {
		t.Fatalf("pprof reachable without -pprof: %d", code)
	}

	on := New(Config{Workers: 1, QueueDepth: 2, Pprof: true})
	defer on.Drain(time.Second)
	tsOn := httptest.NewServer(on)
	defer tsOn.Close()
	if code, _ := getBody(t, tsOn.URL+"/debug/pprof/cmdline"); code != http.StatusOK {
		t.Fatalf("pprof cmdline = %d with -pprof, want 200", code)
	}
}

// Baseline mode keeps the PR 5 surface: spans stay off even when requested.
func TestBaselineIgnoresSpans(t *testing.T) {
	s := New(Config{Workers: 1, QueueDepth: 2, Baseline: true, Spans: true})
	defer s.Drain(time.Second)
	if s.spans != nil || s.traces != nil {
		t.Fatal("baseline server built span machinery")
	}
}
