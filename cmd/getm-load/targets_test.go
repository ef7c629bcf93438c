package main

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"getm/internal/serve"
)

// TestLoadTargetsRoundRobin drives a multi-target run against two in-process
// servers: every target must see traffic (clients pin round-robin), the
// aggregate JSON must report work from both, and the flag must refuse
// nonsense combinations.
func TestLoadTargetsRoundRobin(t *testing.T) {
	var urls []string
	for i := 0; i < 2; i++ {
		s := serve.New(serve.Config{Workers: 2, QueueDepth: 64})
		ts := httptest.NewServer(s)
		urls = append(urls, ts.URL)
		t.Cleanup(func() {
			ts.Close()
			s.Drain(10 * time.Second)
		})
	}

	var stdout, stderr bytes.Buffer
	code := run([]string{
		"-targets", strings.Join(urls, ","),
		"-mix", "dedupe-heavy", "-duration", "300ms", "-clients", "4",
		"-batch", "2", "-keys", "4", "-scale", "0.02",
	}, &stdout, &stderr)
	if code != 0 {
		t.Fatalf("multi-target run exited %d\nstderr: %s", code, stderr.String())
	}
	var res mixResult
	if err := json.Unmarshal(stdout.Bytes(), &res); err != nil {
		t.Fatalf("result JSON: %v\n%s", err, stdout.String())
	}
	if res.OK == 0 {
		t.Fatal("multi-target run completed nothing")
	}
	if res.Errors > 0 {
		t.Fatalf("multi-target run saw %.0f errors", res.Errors)
	}
	// Both front doors served requests: each target's metrics show traffic.
	for i, base := range urls {
		resp, err := httpGet(base + "/metrics")
		if err != nil {
			t.Fatal(err)
		}
		if !strings.Contains(resp, "getm_serve_requests_total") {
			t.Fatalf("target %d exposes no request counter", i)
		}
		if strings.Contains(resp, "getm_serve_requests_total 0\n") {
			t.Errorf("target %d saw no requests; clients did not spread across targets", i)
		}
	}
}

func httpGet(url string) (string, error) {
	resp, err := http.Get(url)
	if err != nil {
		return "", err
	}
	defer resp.Body.Close()
	var b bytes.Buffer
	_, err = b.ReadFrom(resp.Body)
	return b.String(), err
}

// TestLoadTargetsBadFlags pins the usage errors around -targets.
func TestLoadTargetsBadFlags(t *testing.T) {
	for name, args := range map[string][]string{
		"targets+url":   {"-targets", "http://a:1,http://b:2", "-url", "http://c:3"},
		"empty targets": {"-targets", " , "},
	} {
		var out, errOut bytes.Buffer
		if code := run(args, &out, &errOut); code != 2 {
			t.Errorf("%s: exit %d, want 2 (stderr: %s)", name, code, errOut.String())
		}
	}
}

// TestLoadOutAtomicCanceledWrite pins the atomic -out discipline: a write
// that dies partway must leave the previous file byte-identical and no temp
// litter; a successful write replaces it completely.
func TestLoadOutAtomicCanceledWrite(t *testing.T) {
	dir := t.TempDir()
	out := filepath.Join(dir, "BENCH_serve.json")
	old := []byte(`{"previous": "results", "intact": true}` + "\n")
	if err := os.WriteFile(out, old, 0o644); err != nil {
		t.Fatal(err)
	}

	// Canceled mid-write: the old file survives untouched.
	atomicWriteFailAfter = 3
	err := writeFileAtomic(out, []byte(`{"new": "results that never finish writing"}`))
	atomicWriteFailAfter = 0
	if err == nil {
		t.Fatal("canceled write reported success")
	}
	got, rerr := os.ReadFile(out)
	if rerr != nil {
		t.Fatal(rerr)
	}
	if !bytes.Equal(got, old) {
		t.Fatalf("canceled write corrupted the old file:\n%s", got)
	}
	ents, _ := os.ReadDir(dir)
	if len(ents) != 1 {
		t.Fatalf("canceled write left temp litter: %v", ents)
	}

	// A successful write replaces the file completely.
	fresh := []byte(`{"new": "complete"}` + "\n")
	if err := writeFileAtomic(out, fresh); err != nil {
		t.Fatal(err)
	}
	got, _ = os.ReadFile(out)
	if !bytes.Equal(got, fresh) {
		t.Fatalf("successful write produced %s", got)
	}
	if ents, _ := os.ReadDir(dir); len(ents) != 1 {
		t.Fatalf("successful write left temp litter: %v", ents)
	}

	// A write into a missing directory fails cleanly (no torn target).
	if err := writeFileAtomic(filepath.Join(dir, "nope", "x.json"), fresh); err == nil {
		t.Fatal("write into a missing directory reported success")
	}
}

// TestLoadOutEndToEnd exercises -out through run(): the file lands complete
// and decodable after a real (tiny) measurement.
func TestLoadOutEndToEnd(t *testing.T) {
	out := filepath.Join(t.TempDir(), "result.json")
	var stdout, stderr bytes.Buffer
	code := run([]string{
		"-mix", "dedupe-free", "-duration", "150ms", "-clients", "1",
		"-batch", "1", "-scale", "0.02", "-out", out,
	}, &stdout, &stderr)
	if code != 0 {
		t.Fatalf("run exited %d\nstderr: %s", code, stderr.String())
	}
	b, err := os.ReadFile(out)
	if err != nil {
		t.Fatal(err)
	}
	var res mixResult
	if err := json.Unmarshal(b, &res); err != nil {
		t.Fatalf("-out JSON: %v\n%s", err, b)
	}
	if stdout.Len() != 0 {
		t.Errorf("with -out, stdout should carry nothing, got %q", stdout.String())
	}
}
