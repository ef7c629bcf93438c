package serve

import (
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
	"time"
)

// Invalid policies must be rejected at validation time with a 400 — before
// any queueing or simulation — mirroring the API's ErrInvalidPolicy and the
// CLI's exit 2.
func TestSubmitPolicyValidation(t *testing.T) {
	s := New(Config{Workers: 1, QueueDepth: 1, MaxScale: 0.5})
	ts := httptest.NewServer(s)
	defer ts.Close()
	defer s.Drain(time.Second)

	for name, body := range map[string]string{
		"unknown preset":                `{"policy":"mesi","benchmark":"ht-h","scale":0.1}`,
		"eager vm lazy cd":              `{"policy":"vm=eager,cd=lazy","benchmark":"ht-h","scale":0.1}`,
		"eager vm requester":            `{"policy":"vm=eager,res=requester","benchmark":"ht-h","scale":0.1}`,
		"lazy vm timestamp":             `{"policy":"vm=lazy,res=timestamp","benchmark":"ht-h","scale":0.1}`,
		"unknown axis":                  `{"policy":"speed=fast","benchmark":"ht-h","scale":0.1}`,
		"bad axis value":                `{"policy":"vm=eagre","benchmark":"ht-h","scale":0.1}`,
		"policy is not a protocol name": `{"protocol":"vm=eager","benchmark":"ht-h","scale":0.1}`,
		"identity is not a wire name":   `{"protocol":"policy:vm=lazy,cd=eager,res=fww,arb=ring","benchmark":"ht-h","scale":0.1}`,
	} {
		resp := postRun(t, ts.URL, body)
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("%s: status %d, want 400", name, resp.StatusCode)
		}
		resp.Body.Close()
	}
}

// Every spelling of a preset — protocol name, policy preset name, canonical
// axis tuple — must collapse to one job: same run id, one execution, shared
// cache entry. A valid non-preset point is its own distinct job.
func TestSubmitPolicyPresetCollapse(t *testing.T) {
	s := New(Config{Workers: 1, QueueDepth: 4})
	var execs atomic.Int64
	release := make(chan struct{})
	s.execute = blockingStub(&execs, release)
	ts := httptest.NewServer(s)
	defer ts.Close()

	submit := func(body string) string {
		t.Helper()
		resp := postRun(t, ts.URL, body)
		if resp.StatusCode != http.StatusAccepted {
			t.Fatalf("submit %s: status %d, want 202", body, resp.StatusCode)
		}
		return decodeRun(t, resp).ID
	}

	spellings := []string{
		`{"protocol":"getm","benchmark":"ht-h","scale":0.1,"async":true}`,
		`{"policy":"getm","benchmark":"ht-h","scale":0.1,"async":true}`,
		`{"policy":"vm=eager,cd=eager,res=timestamp,arb=local","benchmark":"ht-h","scale":0.1,"async":true}`,
	}
	base := submit(spellings[0])
	for _, sp := range spellings[1:] {
		if id := submit(sp); id != base {
			t.Errorf("spelling %s got run id %s, want %s (preset spellings must share a job)", sp, id, base)
		}
	}

	nonPreset := submit(`{"policy":"vm=lazy,cd=eager,res=fww,arb=ring","benchmark":"ht-h","scale":0.1,"async":true}`)
	if nonPreset == base {
		t.Error("non-preset point shares the preset's run id")
	}

	close(release)
	s.Drain(2 * time.Second)
	if got := execs.Load(); got != 2 {
		t.Errorf("%d executions, want 2 (three preset spellings dedupe to one, plus the non-preset point)", got)
	}
}

// The /metrics policy family must label requests with the full canonical
// tuple (bounded cardinality: the matrix has 12 points plus fglock).
func TestPolicyMetricsLabel(t *testing.T) {
	s := New(Config{Workers: 1, QueueDepth: 8})
	var execs atomic.Int64
	release := make(chan struct{})
	s.execute = blockingStub(&execs, release)
	ts := httptest.NewServer(s)
	defer ts.Close()

	for _, body := range []string{
		`{"protocol":"getm","benchmark":"ht-h","scale":0.1,"async":true}`,
		`{"policy":"getm","benchmark":"ht-h","scale":0.1,"async":true}`,
		`{"policy":"vm=lazy,cd=eager,res=fww,arb=ring","benchmark":"atm","scale":0.1,"async":true}`,
		`{"protocol":"fglock","benchmark":"ht-h","scale":0.1,"async":true}`,
	} {
		resp := postRun(t, ts.URL, body)
		if resp.StatusCode != http.StatusAccepted {
			t.Fatalf("submit: status %d", resp.StatusCode)
		}
		resp.Body.Close()
	}
	close(release)
	s.Drain(2 * time.Second)

	code, metrics := getBody(t, ts.URL+"/metrics")
	if code != http.StatusOK {
		t.Fatalf("/metrics status %d", code)
	}
	for _, want := range []string{
		// Both getm spellings land on one canonical-tuple label with count 2.
		`getm_serve_policy_requests_total{policy="vm=eager,cd=eager,res=timestamp,arb=local"} 2`,
		`getm_serve_policy_requests_total{policy="vm=lazy,cd=eager,res=fww,arb=ring"} 1`,
		`getm_serve_policy_requests_total{policy="fglock"} 1`,
	} {
		if !strings.Contains(metrics, want) {
			t.Errorf("/metrics missing %q\n%s", want, grepLines(metrics, "policy"))
		}
	}
}

// grepLines filters a multi-line body for a substring (test-failure output).
func grepLines(body, sub string) string {
	var out []string
	for _, ln := range strings.Split(body, "\n") {
		if strings.Contains(ln, sub) {
			out = append(out, ln)
		}
	}
	return fmt.Sprintf("%d matching lines:\n%s", len(out), strings.Join(out, "\n"))
}
