package serve

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
	"time"
)

// parityClient is the client key every admission-parity request carries.
const parityClient = "parity"

// getmLabel is the policy label the getm preset counts under.
const getmLabel = "vm=eager,cd=eager,res=timestamp,arb=local"

// parityAnswer is what a client sees of one refused submission: the status
// code, the headers that tell it when (or whether) to come back, and the
// error text — the body's error for a single POST, the entry's status and
// error for a batch.
type parityAnswer struct {
	code       int
	retryAfter string
	closes     bool   // Connection: close (the client reports it as resp.Close)
	shed       string // X-Getm-Shed
	status     string // batch entry status ("" for a single POST)
	err        string
}

// parityDeltas are the admission counters a refusal moves.
type parityDeltas struct {
	rejected, quota, clientShed, policy float64
}

// TestAdmissionParity pins every refusal class at every entry point: the
// wire answer (status, Retry-After and Connection headers, X-Getm-Shed,
// error text or entry status) and the deltas of the rejected, quota,
// per-client shed and per-policy counters. A batch carries the refused spec
// twice, so counting per entry shows in the deltas. One asymmetry is part of
// the contract: a batch arriving while the server drains is refused with 503
// before any entry is screened, so its entries are not counted under a
// policy, while a single POST made while draining is.
func TestAdmissionParity(t *testing.T) {
	const valid = `{"protocol":"getm","benchmark":"ht-h","scale":0.1,"seed":%d,"async":true}`
	// invalids are the specs the invalid class refuses: a protocol that is
	// not a wire name, and cells outside the accepted domain.
	invalids := []struct{ name, spec, err string }{
		{"", `{"protocol":"nope","benchmark":"ht-h"}`,
			`unknown protocol "nope" (want getm, warptm, warptm-el, eapg, fglock)`},
		{"/cores=-1", `{"protocol":"getm","benchmark":"ht-h","scale":0.1,"cores":-1}`,
			`invalid config: Cores -1 out of range [1, 56]`},
		{"/cores=57", `{"protocol":"getm","benchmark":"ht-h","scale":0.1,"cores":57}`,
			`invalid config: Cores 57 out of range [1, 56]`},
		{"/conc=-1", `{"protocol":"getm","benchmark":"ht-h","scale":0.1,"conc":-1}`,
			`invalid config: Core.MaxTxWarps -1 out of range [0, 48] (0 = unlimited)`},
		{"/conc=49", `{"protocol":"getm","benchmark":"ht-h","scale":0.1,"conc":49}`,
			`invalid config: Core.MaxTxWarps 49 out of range [0, 48] (0 = unlimited)`},
		{"/scale=-1", `{"protocol":"getm","benchmark":"ht-h","scale":-1}`,
			`invalid config: scale -1 is not finite and positive`},
	}

	// single starts a server under cfg, drives it into its refusing state
	// with arrange, and returns its URL.
	single := func(t *testing.T, cfg Config, arrange func(t *testing.T, url string, s *Server)) string {
		t.Helper()
		var execs atomic.Int64
		release := make(chan struct{})
		s := New(cfg)
		s.execute = blockingStub(&execs, release)
		ts := httptest.NewServer(s)
		t.Cleanup(func() {
			close(release)
			ts.Close()
			s.Drain(time.Second)
		})
		if arrange != nil {
			arrange(t, ts.URL, s)
		}
		return ts.URL
	}
	// occupy submits two async runs: one running, one queued behind it.
	occupy := func(t *testing.T, url string, s *Server) {
		for seed := 1; seed <= 2; seed++ {
			resp := postParity(t, url, "/v1/runs", fmt.Sprintf(valid, seed))
			resp.Body.Close()
			if resp.StatusCode != http.StatusAccepted {
				t.Fatalf("occupying submit %d: status %d", seed, resp.StatusCode)
			}
			if seed == 1 {
				waitInflight(t, s, 1)
			}
		}
	}
	// spendToken uses the client's one quota token on an admitted run.
	spendToken := func(t *testing.T, url string, _ *Server) {
		resp := postParity(t, url, "/v1/runs", fmt.Sprintf(valid, 1))
		resp.Body.Close()
		if resp.StatusCode != http.StatusAccepted && resp.StatusCode != http.StatusOK {
			t.Fatalf("token-spending submit: status %d", resp.StatusCode)
		}
	}
	drained := func(t *testing.T, _ string, s *Server) {
		if err := s.Drain(time.Second); err != nil {
			t.Fatalf("drain: %v", err)
		}
	}
	quotaCfg := Config{Workers: 1, QueueDepth: 8, QuotaRPS: 0.001, QuotaBurst: 1}
	coordinator := func(t *testing.T, arrange func(t *testing.T, url string, s *Server)) string {
		t.Helper()
		tc := newTestCluster(t, 1, clusterOpts{coordCfg: func(cfg *Config) {
			cfg.QuotaRPS, cfg.QuotaBurst = quotaCfg.QuotaRPS, quotaCfg.QuotaBurst
		}})
		var execs atomic.Int64
		tc.workers[0].s.execute = instantStub(&execs)
		if arrange != nil {
			arrange(t, tc.coord.url, tc.coord.s)
		}
		return tc.coord.url
	}

	queueFull := Config{Workers: 1, QueueDepth: 1}
	clientFull := Config{Workers: 1, QueueDepth: 8, PerClientQueue: 1}
	refused := fmt.Sprintf(valid, 99)
	type parityCase struct {
		name  string
		rig   func(t *testing.T) string
		batch bool
		spec  string
		want  parityAnswer
		delta parityDeltas
	}
	var cases []parityCase
	for _, inv := range invalids {
		cases = append(cases,
			parityCase{"invalid" + inv.name + "/single", func(t *testing.T) string { return single(t, Config{Workers: 1, QueueDepth: 1}, nil) }, false, inv.spec,
				parityAnswer{code: 400, err: inv.err}, parityDeltas{}},
			parityCase{"invalid" + inv.name + "/batch", func(t *testing.T) string { return single(t, Config{Workers: 1, QueueDepth: 1}, nil) }, true, inv.spec,
				parityAnswer{code: 200, shed: "0", status: "invalid", err: inv.err}, parityDeltas{}},
			parityCase{"invalid" + inv.name + "/coordinator-batch", func(t *testing.T) string { return coordinator(t, nil) }, true, inv.spec,
				parityAnswer{code: 200, shed: "0", status: "invalid", err: inv.err}, parityDeltas{}})
	}
	cases = append(cases, []parityCase{
		{"quota/single", func(t *testing.T) string { return single(t, quotaCfg, spendToken) }, false, refused,
			parityAnswer{code: 429, retryAfter: "600", err: "over per-client quota (0.001 req/s); retry later"},
			parityDeltas{rejected: 1, quota: 1, clientShed: 1, policy: 1}},
		{"quota/batch", func(t *testing.T) string { return single(t, quotaCfg, spendToken) }, true, refused,
			parityAnswer{code: 200, shed: "2", status: "shed", err: "over per-client quota"},
			parityDeltas{rejected: 2, quota: 2, clientShed: 2, policy: 2}},
		{"quota/coordinator-batch", func(t *testing.T) string { return coordinator(t, spendToken) }, true, refused,
			parityAnswer{code: 200, shed: "2", status: "shed", err: "over per-client quota"},
			parityDeltas{rejected: 2, quota: 2, clientShed: 2, policy: 2}},

		{"queue-full/single", func(t *testing.T) string { return single(t, queueFull, occupy) }, false, refused,
			parityAnswer{code: 429, retryAfter: "1", err: "queue full (1 waiting, 1 running); retry later"},
			parityDeltas{rejected: 1, clientShed: 1, policy: 1}},
		{"queue-full/batch", func(t *testing.T) string { return single(t, queueFull, occupy) }, true, refused,
			parityAnswer{code: 200, shed: "2", status: "shed", err: "queue full"},
			parityDeltas{rejected: 2, clientShed: 2, policy: 2}},

		{"client-full/single", func(t *testing.T) string { return single(t, clientFull, occupy) }, false, refused,
			parityAnswer{code: 429, retryAfter: "1", err: "client backlog full (1 queued); retry later"},
			parityDeltas{rejected: 1, clientShed: 1, policy: 1}},
		{"client-full/batch", func(t *testing.T) string { return single(t, clientFull, occupy) }, true, refused,
			parityAnswer{code: 200, shed: "2", status: "shed", err: "queue full"},
			parityDeltas{rejected: 2, clientShed: 2, policy: 2}},

		{"draining/single", func(t *testing.T) string { return single(t, Config{Workers: 1, QueueDepth: 1}, drained) }, false, refused,
			parityAnswer{code: 503, closes: true, err: "server is draining"},
			parityDeltas{rejected: 1, clientShed: 1, policy: 1}},
		{"draining/batch", func(t *testing.T) string { return single(t, Config{Workers: 1, QueueDepth: 1}, drained) }, true, refused,
			parityAnswer{code: 503, closes: true, err: "server is draining"},
			parityDeltas{rejected: 2, clientShed: 2}},
	}...)
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			url := c.rig(t)
			before := scrapeParity(t, url)
			path, body := "/v1/runs", c.spec
			if c.batch {
				path, body = "/v1/runs/batch", "["+c.spec+","+c.spec+"]"
			}
			resp := postParity(t, url, path, body)
			raw, err := io.ReadAll(resp.Body)
			resp.Body.Close()
			if err != nil {
				t.Fatal(err)
			}
			got := parityAnswer{
				code:       resp.StatusCode,
				retryAfter: resp.Header.Get("Retry-After"),
				closes:     resp.Close,
				shed:       resp.Header.Get("X-Getm-Shed"),
			}
			if c.batch && resp.StatusCode == http.StatusOK {
				var entries []Response
				if err := json.Unmarshal(raw, &entries); err != nil || len(entries) != 2 || entries[0] != entries[1] {
					t.Fatalf("batch body %q: %v", raw, err)
				}
				got.status, got.err = entries[0].Status, entries[0].Error
			} else {
				var e struct{ Error string }
				if err := json.Unmarshal(raw, &e); err != nil {
					t.Fatalf("error body %q: %v", raw, err)
				}
				got.err = e.Error
			}
			if got != c.want {
				t.Errorf("answer = %+v, want %+v", got, c.want)
			}

			after := scrapeParity(t, url)
			delta := func(series string) float64 { return after[series] - before[series] }
			gotD := parityDeltas{
				rejected:   delta("getm_serve_rejected_total"),
				quota:      delta("getm_serve_quota_rejected_total"),
				clientShed: delta(`getm_serve_client_shed_total{client="` + parityClient + `"}`),
				policy:     delta(`getm_serve_policy_requests_total{policy="` + getmLabel + `"}`),
			}
			if gotD != c.delta {
				t.Errorf("counter deltas = %+v, want %+v", gotD, c.delta)
			}
		})
	}
}

// postParity posts body to url+path as the parity client.
func postParity(t *testing.T, url, path, body string) *http.Response {
	t.Helper()
	req, err := http.NewRequest("POST", url+path, strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set("X-Client-ID", parityClient)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	return resp
}

// scrapeParity reads /metrics into series -> value.
func scrapeParity(t *testing.T, url string) map[string]float64 {
	t.Helper()
	code, body := getBody(t, url+"/metrics")
	if code != http.StatusOK {
		t.Fatalf("/metrics = %d", code)
	}
	out := make(map[string]float64)
	for name, s := range parseProm(t, body) {
		out[name] = s.value
	}
	return out
}
