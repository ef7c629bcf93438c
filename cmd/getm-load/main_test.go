package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

func TestBadFlags(t *testing.T) {
	for name, args := range map[string][]string{
		"unknown flag":  {"-nope"},
		"bad mix":       {"-mix", "all-cache"},
		"zero clients":  {"-clients", "0"},
		"batch too big": {"-batch", "1000"},
		"flat zipf":     {"-zipf", "0.5"},
		"no duration":   {"-duration", "0s"},
	} {
		var out, errOut bytes.Buffer
		if code := run(args, &out, &errOut); code != 2 {
			t.Errorf("%s: exit %d, want 2 (stderr: %s)", name, code, errOut.String())
		}
	}
}

func TestQuantileAndMean(t *testing.T) {
	if q := quantile(nil, 0.99); q != 0 {
		t.Fatalf("empty quantile = %v", q)
	}
	xs := []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	if q := quantile(xs, 0.50); q != 5 {
		t.Fatalf("p50 = %v, want 5", q)
	}
	if q := quantile(xs, 0.99); q != 9 {
		t.Fatalf("p99 of 10 samples = %v, want 9 (index 8)", q)
	}
	if m := mean(xs); m != 5.5 {
		t.Fatalf("mean = %v, want 5.5", m)
	}
	if m := mean(nil); m != 0 {
		t.Fatalf("empty mean = %v", m)
	}
}

func TestSpecShape(t *testing.T) {
	cfg := loadCfg{protocol: "getm", benchmark: "ht-h", scale: 0.25}
	sp := spec(cfg, 7)
	b, err := json.Marshal(sp)
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{`"protocol":"getm"`, `"benchmark":"ht-h"`, `"scale":0.25`, `"seed":7`} {
		if !strings.Contains(string(b), want) {
			t.Errorf("spec JSON %s missing %s", b, want)
		}
	}
}

// End-to-end: a short dedupe-heavy run against a spawned server produces a
// sane result file, and errors against a dead server are counted, not fatal.
func TestLoadEndToEnd(t *testing.T) {
	if testing.Short() {
		t.Skip("sustained load run")
	}
	out := filepath.Join(t.TempDir(), "load.json")
	var stdout, stderr bytes.Buffer
	code := run([]string{
		"-mix", "dedupe-heavy", "-duration", "300ms", "-clients", "2",
		"-batch", "4", "-keys", "3", "-scale", "0.02", "-out", out,
		"-slo-p99", "5s", "-slo-shed", "0.5",
	}, &stdout, &stderr)
	if code != 0 {
		t.Fatalf("exit %d\nstderr: %s", code, stderr.String())
	}
	b, err := os.ReadFile(out)
	if err != nil {
		t.Fatal(err)
	}
	var res mixResult
	if err := json.Unmarshal(b, &res); err != nil {
		t.Fatalf("result not valid JSON: %v", err)
	}
	if res.Requests <= 0 || res.OK <= 0 || res.RPS <= 0 {
		t.Fatalf("degenerate result: %+v", res)
	}
	if res.Errors != 0 {
		t.Fatalf("%v errors against a healthy server", res.Errors)
	}
	if !strings.Contains(stderr.String(), "SLOs met") {
		t.Fatalf("SLO verdict missing from stderr: %s", stderr.String())
	}
}

// A violated SLO must exit 1 — the gate contract `make load-gate` relies on.
func TestSLOViolationExitsNonzero(t *testing.T) {
	if testing.Short() {
		t.Skip("sustained load run")
	}
	var stdout, stderr bytes.Buffer
	code := run([]string{
		"-mix", "dedupe-heavy", "-duration", "200ms", "-clients", "1",
		"-batch", "2", "-keys", "2", "-scale", "0.02",
		"-slo-p99", "1ns", // unattainable
	}, &stdout, &stderr)
	if code != 1 {
		t.Fatalf("exit %d with an unattainable p99 SLO, want 1\nstderr: %s", code, stderr.String())
	}
	if !strings.Contains(stderr.String(), "SLO VIOLATION") {
		t.Fatalf("violation not reported: %s", stderr.String())
	}
}

func TestDeadServerCountsErrors(t *testing.T) {
	if testing.Short() {
		t.Skip("sustained load run")
	}
	var stdout, stderr bytes.Buffer
	start := time.Now()
	code := run([]string{
		"-url", "http://127.0.0.1:1", // nothing listens on port 1
		"-mix", "dedupe-free", "-duration", "200ms", "-clients", "1", "-batch", "2",
	}, &stdout, &stderr)
	if code != 0 {
		t.Fatalf("dead-server run exit %d, want 0 (errors are data, not crashes)\nstderr: %s", code, stderr.String())
	}
	if time.Since(start) > 30*time.Second {
		t.Fatal("dead-server run hung")
	}
	var res mixResult
	if err := json.Unmarshal(stdout.Bytes(), &res); err != nil {
		t.Fatal(err)
	}
	if res.Errors == 0 || res.OK != 0 {
		t.Fatalf("dead server produced %+v, want all errors", res)
	}
}
