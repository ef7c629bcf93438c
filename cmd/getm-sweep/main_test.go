package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"getm/internal/store"
)

// An explicit -resume without -store is a misconfiguration, not a silent
// no-op: there is nothing to resume from.
func TestResumeRequiresStore(t *testing.T) {
	for _, arg := range []string{"-resume", "-resume=false"} {
		var stdout, stderr bytes.Buffer
		code := run([]string{arg, "-bench", "ht-h", "-scale", "0.05", "-values", "1"}, &stdout, &stderr)
		if code != 2 {
			t.Errorf("%s without -store exited %d, want 2", arg, code)
		}
		if !strings.Contains(stderr.String(), "-store") {
			t.Errorf("%s error does not mention -store: %s", arg, stderr.String())
		}
	}
}

// The table on stdout is the contract: adding -store (cold or resumed) or a
// generous -timeout must not change a single byte of it.
func TestStdoutByteIdenticalAcrossModes(t *testing.T) {
	base := []string{"-bench", "ht-h", "-scale", "0.05", "-values", "1,2,4"}
	dir := filepath.Join(t.TempDir(), "results")

	var plain, plainErr bytes.Buffer
	if code := run(base, &plain, &plainErr); code != 0 {
		t.Fatalf("plain run exited %d\nstderr: %s", code, plainErr.String())
	}
	if plain.Len() == 0 {
		t.Fatal("plain run produced no table")
	}

	variants := map[string][]string{
		"cold store":    append(append([]string{}, base...), "-store", dir),
		"resumed store": append(append([]string{}, base...), "-store", dir),
		"timeout":       append(append([]string{}, base...), "-timeout", "60s"),
		"parallel":      append(append([]string{}, base...), "-workers", "4"),
	}
	// Order matters for the store pair; run cold first.
	for _, name := range []string{"cold store", "resumed store", "timeout", "parallel"} {
		var stdout, stderr bytes.Buffer
		if code := run(variants[name], &stdout, &stderr); code != 0 {
			t.Fatalf("%s run exited %d\nstderr: %s", name, code, stderr.String())
		}
		if stdout.String() != plain.String() {
			t.Errorf("%s stdout differs from plain run:\n--- plain ---\n%s--- %s ---\n%s",
				name, plain.String(), name, stdout.String())
		}
	}

	// The store diagnostics live on stderr, never stdout.
	var stdout, stderr bytes.Buffer
	if code := run(variants["resumed store"], &stdout, &stderr); code != 0 {
		t.Fatal("store rerun failed")
	}
	if !strings.Contains(stderr.String(), "0 simulated, 3 reused from store") {
		t.Errorf("resumed run stderr missing reuse count:\n%s", stderr.String())
	}
	if strings.Contains(stdout.String(), "reused") {
		t.Errorf("store diagnostics leaked to stdout:\n%s", stdout.String())
	}
}

// A store write that fails prints one "warning: store: …" line on stderr,
// with the store's prefix once, and the sweep still succeeds. A directory
// under a record's file name makes the commit's rename fail.
func TestStoreWriteFailureWarns(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "results")
	args := []string{"-bench", "ht-h", "-scale", "0.05", "-values", "1,2", "-store", dir}
	var out1, err1 bytes.Buffer
	if code := run(args, &out1, &err1); code != 0 {
		t.Fatalf("first run exited %d\nstderr: %s", code, err1.String())
	}
	ents, err := os.ReadDir(dir)
	if err != nil || len(ents) != 2 {
		t.Fatalf("store holds %d records (%v), want 2", len(ents), err)
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
		t.Errorf("table changed:\n--- first ---\n%s--- second ---\n%s", out1.String(), out2.String())
	}
	if msg := err2.String(); strings.Count(msg, "warning: store: ") != 1 || strings.Contains(msg, "store: store:") {
		t.Errorf("want one \"warning: store: …\" line:\n%s", msg)
	}
}

// A sweep point cut short by -timeout is an error, not a table row: partial
// metrics must never be tabulated next to complete ones.
func TestTimeoutPointIsError(t *testing.T) {
	var stdout, stderr bytes.Buffer
	code := run([]string{"-bench", "ap", "-scale", "1.0", "-values", "1,2", "-timeout", "5ms"}, &stdout, &stderr)
	if code == 0 {
		t.Fatal("timed-out sweep exited 0")
	}
	if stdout.Len() != 0 {
		t.Errorf("timed-out sweep printed a table:\n%s", stdout.String())
	}
	if !strings.Contains(stderr.String(), "error at conc=") {
		t.Errorf("stderr does not report the failed point:\n%s", stderr.String())
	}
}

// The policy grid is the ISSUE's deliverable: every valid matrix point (12,
// presets first) on each workload, one row per cell, every cell committing
// work. CSV keeps the assertion parse-light.
func TestPolicyGrid(t *testing.T) {
	var stdout, stderr bytes.Buffer
	code := run([]string{"-policy-grid", "-scale", "0.05", "-format", "csv"}, &stdout, &stderr)
	if code != 0 {
		t.Fatalf("policy-grid exited %d\nstderr: %s", code, stderr.String())
	}
	lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
	if lines[0] != "policy,bench,cycles,commits,aborts/1K,commits/Kcyc" {
		t.Fatalf("unexpected header %q", lines[0])
	}
	rows := lines[1:]
	if len(rows) != 24 {
		t.Fatalf("%d grid rows, want 24 (12 valid points x 2 workloads)", len(rows))
	}
	points := map[string]int{}
	for _, ln := range rows {
		f := strings.Split(ln, ",")
		if len(f) < 6 {
			t.Fatalf("malformed row %q", ln)
		}
		// The policy column may itself contain commas (canonical axis
		// tuples); commits is always the 4th field from the end.
		commits := f[len(f)-3]
		if commits == "0" {
			t.Errorf("cell %q committed nothing", ln)
		}
		points[strings.Join(f[:len(f)-5], ",")]++
	}
	if len(points) != 12 {
		t.Errorf("%d distinct policy points, want 12 (%v)", len(points), points)
	}
	for p, n := range points {
		if n != 2 {
			t.Errorf("point %s has %d rows, want one per workload", p, n)
		}
	}
}

// -policy pins every knob-sweep cell to one matrix point; combining it with
// -policy-grid is contradictory and must be a usage error, as must an
// invalid point or an unknown -proto (only the spellings gpu.ProtocolOf
// produces name a protocol) — each with a one-line diagnosis before any
// point runs, never a panic in a worker goroutine.
func TestPolicyFlagErrors(t *testing.T) {
	for name, args := range map[string][]string{
		"grid plus point":  {"-policy-grid", "-policy", "getm"},
		"invalid point":    {"-policy", "vm=eager,cd=lazy", "-bench", "ht-h", "-scale", "0.05", "-values", "1"},
		"unknown protocol": {"-proto", "bogus", "-bench", "atm", "-scale", "0.01", "-values", "1"},
		"bare tuple":       {"-proto", "vm=lazy", "-bench", "atm", "-scale", "0.01", "-values", "1"},
		"prefixed preset":  {"-proto", "policy:getm", "-bench", "atm", "-scale", "0.01", "-values", "1"},
	} {
		var stdout, stderr bytes.Buffer
		if code := run(args, &stdout, &stderr); code != 2 {
			t.Errorf("%s exited %d, want 2 (stderr: %s)", name, code, stderr.String())
		}
		if msg := stderr.String(); !strings.HasPrefix(msg, "error: ") || strings.Count(msg, "\n") != 1 {
			t.Errorf("%s: want a one-line error, got:\n%s", name, msg)
		}
	}
}

// A -policy sweep labels a non-preset point by its bare axis tuple, in the
// table title and in the store descriptions benchdiff -policy filters on;
// the "policy:" protocol identity is internal to the store key.
func TestPolicyPointLabels(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "results")
	var stdout, stderr bytes.Buffer
	if code := run([]string{"-policy", "vm=lazy,res=fww,arb=local", "-bench", "atm", "-scale", "0.02",
		"-values", "1", "-store", dir}, &stdout, &stderr); code != 0 {
		t.Fatalf("exited %d\nstderr: %s", code, stderr.String())
	}
	const label = "vm=lazy,cd=lazy,res=fww,arb=local"
	if !strings.Contains(stdout.String(), label+" on atm, sweeping conc") {
		t.Errorf("title does not name %s:\n%s", label, stdout.String())
	}
	recs, err := store.LoadDir(dir)
	if err != nil || len(recs) != 1 {
		t.Fatalf("store holds %d records (%v), want 1", len(recs), err)
	}
	if want := label + "/atm/conc=1"; recs[0].Desc != want {
		t.Errorf("record desc %q, want %q", recs[0].Desc, want)
	}
}

// A knob value that is negative, or that puts a point's cell outside the
// accepted domain, is a usage error: exit 2, one "error:" line and nothing
// on stdout, before any point runs — never a panic on a worker goroutine,
// never a row labelled with a wrapped uint64.
func TestInvalidKnobValues(t *testing.T) {
	for _, args := range [][]string{
		{"-knob", "gran", "-values", "0"},
		{"-knob", "gran", "-values", "32,3"},
		{"-knob", "conc", "-values", "-3"},
		{"-knob", "conc", "-values", "49"},
		{"-knob", "backoff", "-values", "-1"},
		{"-knob", "stall", "-values", "-1"},
		{"-knob", "meta", "-values", "1"},
		{"-knob", "cores", "-values", "57"},
		{"-knob", "conc", "-values", "x"},
		{"-proto", "warptm", "-knob", "inflight", "-values", "0"},
		{"-bench", "nosuch", "-values", "1"},
		{"-policy-grid", "-bench", "ht-h,nosuch"},
		{"-scale", "-1", "-values", "1"},
		{"-knob", "nosuch", "-values", "1"},
	} {
		var stdout, stderr bytes.Buffer
		code := run(append([]string{"-bench", "ht-h", "-scale", "0.05"}, args...), &stdout, &stderr)
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
