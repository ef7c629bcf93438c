package main

import (
	"bytes"
	"context"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

// Smoke test for the acceptance criterion: a traced hashtable run must emit
// valid Chrome trace-event JSON containing events from at least four
// distinct machine layers (simt, xbar, mem, core).
func TestTraceSmokeJSON(t *testing.T) {
	out := filepath.Join(t.TempDir(), "trace.json")
	var stdout, stderr bytes.Buffer
	code := run([]string{"-bench", "ht-h", "-scale", "0.05", "-trace", out}, &stdout, &stderr)
	if code != 0 {
		t.Fatalf("run exited %d\nstderr: %s", code, stderr.String())
	}
	data, err := os.ReadFile(out)
	if err != nil {
		t.Fatal(err)
	}

	var parsed struct {
		TraceEvents []struct {
			Name string         `json:"name"`
			Ph   string         `json:"ph"`
			Args map[string]any `json:"args"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(data, &parsed); err != nil {
		t.Fatalf("trace output is not valid JSON: %v", err)
	}
	if len(parsed.TraceEvents) == 0 {
		t.Fatal("trace has no events")
	}

	// WritePerfetto names a process only for sources that recorded events.
	sources := map[string]bool{}
	counters := 0
	for _, e := range parsed.TraceEvents {
		if e.Ph == "M" && e.Name == "process_name" {
			sources[e.Args["name"].(string)] = true
		}
		if e.Ph == "C" {
			counters++
		}
	}
	for _, want := range []string{"simt", "xbar", "mem", "core"} {
		if !sources[want] {
			t.Errorf("missing events from source %q (have %v)", want, sources)
		}
	}
	if counters == 0 {
		t.Error("no interval-sample counter events (sampler not running)")
	}
	if !strings.Contains(stdout.String(), "trace written") {
		t.Errorf("stdout missing trace confirmation:\n%s", stdout.String())
	}
}

// The CSV format must produce a parseable sampled time series.
func TestTraceCSV(t *testing.T) {
	out := filepath.Join(t.TempDir(), "trace.csv")
	var stdout, stderr bytes.Buffer
	code := run([]string{"-bench", "atm", "-scale", "0.05", "-trace", out,
		"-trace-format", "csv", "-sample-interval", "500"}, &stdout, &stderr)
	if code != 0 {
		t.Fatalf("run exited %d\nstderr: %s", code, stderr.String())
	}
	data, err := os.ReadFile(out)
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(string(data)), "\n")
	if len(lines) < 2 {
		t.Fatalf("CSV has %d lines, want header + samples:\n%s", len(lines), data)
	}
	if !strings.HasPrefix(lines[0], "cycle,") || !strings.Contains(lines[0], "ipc") {
		t.Errorf("unexpected CSV header %q", lines[0])
	}
	nCols := len(strings.Split(lines[0], ","))
	for i, ln := range lines[1:] {
		if got := len(strings.Split(ln, ",")); got != nCols {
			t.Errorf("row %d has %d columns, header has %d", i+1, got, nCols)
		}
	}
}

// An unknown source in -trace-filter must fail cleanly.
func TestTraceBadFilter(t *testing.T) {
	var stdout, stderr bytes.Buffer
	code := run([]string{"-trace", "x.json", "-trace-filter", "bogus"}, &stdout, &stderr)
	if code == 0 {
		t.Fatal("accepted unknown trace source")
	}
	if !strings.Contains(stderr.String(), "bogus") {
		t.Errorf("error does not name the bad source: %s", stderr.String())
	}
}

// A stored run re-invoked against the same directory must load the record
// instead of re-simulating, with byte-identical stdout; a corrupted record
// must be silently recomputed, again byte-identically.
func TestStoreResume(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "results")
	args := []string{"-bench", "ht-h", "-scale", "0.05", "-conc", "4", "-store", dir}

	var out1, err1 bytes.Buffer
	if code := run(args, &out1, &err1); code != 0 {
		t.Fatalf("first run exited %d\nstderr: %s", code, err1.String())
	}
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(ents) != 1 {
		t.Fatalf("store holds %d records, want 1", len(ents))
	}

	var out2, err2 bytes.Buffer
	if code := run(args, &out2, &err2); code != 0 {
		t.Fatalf("second run exited %d\nstderr: %s", code, err2.String())
	}
	if out1.String() != out2.String() {
		t.Fatalf("resumed output differs:\n--- first ---\n%s--- second ---\n%s", out1.String(), out2.String())
	}
	if !strings.Contains(err2.String(), "loaded from store") {
		t.Errorf("second run did not report a store hit:\n%s", err2.String())
	}

	// Corrupt the record: the next run silently recomputes, identically.
	path := filepath.Join(dir, ents[0].Name())
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)-3] ^= 0x08
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	var out3, err3 bytes.Buffer
	if code := run(args, &out3, &err3); code != 0 {
		t.Fatalf("post-corruption run exited %d\nstderr: %s", code, err3.String())
	}
	if out1.String() != out3.String() {
		t.Fatal("recomputed output differs from the original run")
	}
	if strings.Contains(err3.String(), "loaded from store") {
		t.Error("corrupt record was served as a store hit")
	}

	// -resume=false must re-simulate even with an intact record.
	var out4, err4 bytes.Buffer
	if code := run(append(args, "-resume=false"), &out4, &err4); code != 0 {
		t.Fatalf("-resume=false run exited %d\nstderr: %s", code, err4.String())
	}
	if strings.Contains(err4.String(), "loaded from store") {
		t.Error("-resume=false still read the store")
	}
	if out1.String() != out4.String() {
		t.Fatal("re-simulated output differs")
	}
}

// An explicit -resume without -store is a misconfiguration, not a silent
// no-op: there is nothing to resume from.
func TestResumeRequiresStore(t *testing.T) {
	for _, arg := range []string{"-resume", "-resume=false"} {
		var stdout, stderr bytes.Buffer
		code := run([]string{arg, "-bench", "ht-h", "-scale", "0.05"}, &stdout, &stderr)
		if code != 2 {
			t.Errorf("%s without -store exited %d, want 2", arg, code)
		}
		if !strings.Contains(stderr.String(), "-store") {
			t.Errorf("%s error does not mention -store: %s", arg, stderr.String())
		}
		if stdout.Len() != 0 {
			t.Errorf("%s usage error wrote to stdout: %s", arg, stdout.String())
		}
	}
}

// -trace with an active store must warn that the record is refreshed rather
// than reused (the trace forces a fresh simulation).
func TestTraceWithStoreWarns(t *testing.T) {
	dir := t.TempDir()
	out := filepath.Join(dir, "trace.json")
	var stdout, stderr bytes.Buffer
	code := run([]string{"-bench", "ht-h", "-scale", "0.05", "-store", filepath.Join(dir, "results"), "-trace", out}, &stdout, &stderr)
	if code != 0 {
		t.Fatalf("run exited %d\nstderr: %s", code, stderr.String())
	}
	if !strings.Contains(stderr.String(), "refreshed, not reused") {
		t.Errorf("missing trace/store warning on stderr:\n%s", stderr.String())
	}
}

// A timed-out run reports TRUNCATED on stderr, keeping stdout pure metrics.
func TestTruncatedNoteOnStderr(t *testing.T) {
	cutOneChunkIn(t)
	var stdout, stderr bytes.Buffer
	code := run([]string{"-bench", "ap", "-scale", "1.0", "-timeout", "5ms"}, &stdout, &stderr)
	if code == 0 {
		t.Fatal("timed-out run exited 0")
	}
	if strings.Contains(stdout.String(), "TRUNCATED") {
		t.Errorf("TRUNCATED note leaked to stdout:\n%s", stdout.String())
	}
	if !strings.Contains(stderr.String(), "TRUNCATED") {
		t.Errorf("TRUNCATED note missing from stderr:\n%s", stderr.String())
	}
}

// A traced run cut short by -timeout still writes its trace — the events up
// to the cancel — and notes the truncation on stderr.
func TestTraceWrittenOnTimeout(t *testing.T) {
	cutOneChunkIn(t)
	out := filepath.Join(t.TempDir(), "t.json")
	var stdout, stderr bytes.Buffer
	code := run([]string{"-bench", "ap", "-scale", "1.0", "-trace", out, "-timeout", "5ms"}, &stdout, &stderr)
	if code == 0 {
		t.Fatal("timed-out run exited 0")
	}
	if !strings.Contains(stderr.String(), "TRUNCATED") {
		t.Fatalf("TRUNCATED note missing from stderr:\n%s", stderr.String())
	}
	data, err := os.ReadFile(out)
	if err != nil {
		t.Fatalf("no trace file: %v\nstderr: %s", err, stderr.String())
	}
	var parsed struct {
		TraceEvents []json.RawMessage `json:"traceEvents"`
	}
	if err := json.Unmarshal(data, &parsed); err != nil || len(parsed.TraceEvents) == 0 {
		t.Fatalf("trace holds %d events (%v), want the run's events up to the cancel", len(parsed.TraceEvents), err)
	}
	if !strings.Contains(stdout.String(), "trace written") {
		t.Errorf("stdout missing trace confirmation:\n%s", stdout.String())
	}
}

// cutOneChunkIn makes -timeout deterministic for one test: the context it
// yields expires at the engine's second poll, one chunk of cycles into the
// run, however long the kernel build takes on the host (-race, a loaded
// machine).
func cutOneChunkIn(t *testing.T) {
	old := withTimeout
	withTimeout = func(parent context.Context, _ time.Duration) (context.Context, context.CancelFunc) {
		return &pollCountCtx{Context: parent, cancelN: 2}, func() {}
	}
	t.Cleanup(func() { withTimeout = old })
}

// pollCountCtx is a deterministic cancellable context: Err reports
// DeadlineExceeded from its n-th poll onward. A run polls Err once before it
// starts and then at every chunk boundary. Done returns a non-nil
// (never-closed) channel so the run treats it as cancellable.
type pollCountCtx struct {
	context.Context
	polls   int
	cancelN int
}

func (c *pollCountCtx) Done() <-chan struct{} { return make(chan struct{}) }

func (c *pollCountCtx) Err() error {
	c.polls++
	if c.polls >= c.cancelN {
		return context.DeadlineExceeded
	}
	return nil
}

// A store write that fails prints one "warning: store: …" line on stderr,
// with the store's prefix once, and the run still succeeds. A directory
// under the record's file name makes the commit's rename fail.
func TestStoreWriteFailureWarns(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "results")
	args := []string{"-bench", "ht-h", "-scale", "0.05", "-store", dir}
	var out1, err1 bytes.Buffer
	if code := run(args, &out1, &err1); code != 0 {
		t.Fatalf("first run exited %d\nstderr: %s", code, err1.String())
	}
	ents, err := os.ReadDir(dir)
	if err != nil || len(ents) != 1 {
		t.Fatalf("store holds %d records (%v), want 1", len(ents), err)
	}
	path := filepath.Join(dir, ents[0].Name())
	if err := os.Remove(path); err != nil {
		t.Fatal(err)
	}
	if err := os.Mkdir(path, 0o755); err != nil {
		t.Fatal(err)
	}

	var out2, err2 bytes.Buffer
	if code := run(args, &out2, &err2); code != 0 {
		t.Fatalf("run with a failing store write exited %d\nstderr: %s", code, err2.String())
	}
	if out2.String() != out1.String() {
		t.Errorf("stdout changed:\n--- first ---\n%s--- second ---\n%s", out1.String(), out2.String())
	}
	if msg := err2.String(); strings.Count(msg, "warning: store: ") != 1 || strings.Contains(msg, "store: store:") {
		t.Errorf("want one \"warning: store: …\" line:\n%s", msg)
	}
}

// -policy must reject invalid matrix points as a usage error (exit 2)
// before any simulation, and accept every spelling of a valid one.
func TestPolicyFlag(t *testing.T) {
	for _, bad := range []string{
		"vm=eager,cd=lazy",       // eager VM has nothing to validate lazily
		"vm=eager,res=requester", // reservation holder cannot lose
		"vm=lazy,res=timestamp",  // no timestamps under value validation
		"mesi",                   // unknown preset
		"speed=fast",             // unknown axis
	} {
		var stdout, stderr bytes.Buffer
		code := run([]string{"-policy", bad, "-bench", "atm", "-scale", "0.01"}, &stdout, &stderr)
		if code != 2 {
			t.Errorf("-policy %q exited %d, want 2", bad, code)
		}
		if !strings.Contains(stderr.String(), "invalid policy") {
			t.Errorf("-policy %q stderr missing diagnosis: %s", bad, stderr.String())
		}
	}

	var stdout, stderr bytes.Buffer
	if code := run([]string{"-policy", "vm=lazy,cd=eager,res=fww,arb=ring", "-bench", "atm", "-scale", "0.01"}, &stdout, &stderr); code != 0 {
		t.Fatalf("valid non-preset point exited %d\nstderr: %s", code, stderr.String())
	}
	if !strings.Contains(stdout.String(), "commits") {
		t.Errorf("run produced no metrics:\n%s", stdout.String())
	}
}

// A preset selected with -policy must hit the same store record a -proto
// run wrote: matrix spelling is key-invisible for the paper's protocols.
func TestPolicyPresetSharesStoreRecord(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "results")
	args := []string{"-bench", "atm", "-scale", "0.05", "-store", dir}

	var out1, err1 bytes.Buffer
	if code := run(append([]string{"-proto", "getm"}, args...), &out1, &err1); code != 0 {
		t.Fatalf("-proto run exited %d\nstderr: %s", code, err1.String())
	}
	var out2, err2 bytes.Buffer
	if code := run(append([]string{"-policy", "getm"}, args...), &out2, &err2); code != 0 {
		t.Fatalf("-policy run exited %d\nstderr: %s", code, err2.String())
	}
	if !strings.Contains(err2.String(), "loaded from store") {
		t.Errorf("-policy getm re-simulated instead of loading the -proto getm record:\n%s", err2.String())
	}
	if out1.String() != out2.String() {
		t.Errorf("metrics differ between -proto and -policy spellings:\n--- proto ---\n%s--- policy ---\n%s",
			out1.String(), out2.String())
	}
}

// An unknown -proto is a usage error: exit 2 with a one-line diagnosis
// before any simulation, never a panic. Only the spellings gpu.ProtocolOf
// produces name a protocol.
func TestUnknownProtoFlag(t *testing.T) {
	for _, bad := range []string{"bogus", "vm=lazy", "policy:getm", "policy:vm=eager,cd=lazy,res=timestamp,arb=local"} {
		var stdout, stderr bytes.Buffer
		code := run([]string{"-proto", bad, "-bench", "atm", "-scale", "0.01"}, &stdout, &stderr)
		if code != 2 {
			t.Errorf("-proto %q exited %d, want 2", bad, code)
		}
		if msg := stderr.String(); !strings.HasPrefix(msg, "error: unknown protocol") || strings.Count(msg, "\n") != 1 {
			t.Errorf("-proto %q: want a one-line unknown-protocol error, got:\n%s", bad, msg)
		}
		if stdout.Len() != 0 {
			t.Errorf("-proto %q wrote to stdout:\n%s", bad, stdout.String())
		}
	}
}

// A cell outside the accepted domain is a usage error: exit 2, one "error:"
// line and nothing on stdout, before anything simulates. None of these runs
// the default machine or scale instead.
func TestInvalidCellFlags(t *testing.T) {
	for _, args := range [][]string{
		{"-conc", "-1"},
		{"-conc", "49"},
		{"-cores", "-5"},
		{"-cores", "57"},
		{"-scale", "-1"},
		{"-bench", "nosuch"},
	} {
		var stdout, stderr bytes.Buffer
		code := run(append([]string{"-bench", "ht-h"}, args...), &stdout, &stderr)
		if code != 2 {
			t.Errorf("%v exited %d, want 2 (stderr: %s)", args, code, stderr.String())
		}
		if msg := stderr.String(); !strings.HasPrefix(msg, "error: ") || strings.Count(msg, "\n") != 1 {
			t.Errorf("%v: want one error line, got:\n%s", args, msg)
		}
		if stdout.Len() != 0 {
			t.Errorf("%v wrote to stdout:\n%s", args, stdout.String())
		}
	}
}
