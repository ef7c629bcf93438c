package main

import (
	"bytes"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"getm/internal/serve"
)

// startSweepServer runs an in-process getm-serve for -server tests.
func startSweepServer(t *testing.T) string {
	t.Helper()
	s := serve.New(serve.Config{Workers: 4, QueueDepth: 64})
	ts := httptest.NewServer(s)
	t.Cleanup(func() {
		ts.Close()
		s.Drain(10 * time.Second)
	})
	return ts.URL
}

// TestSweepServerModeMatchesLocal pins the server-mode contract: the table a
// -server sweep prints is byte-identical to the local simulation's —
// deterministic simulations return the same metrics whichever process runs
// them.
func TestSweepServerModeMatchesLocal(t *testing.T) {
	base := []string{"-bench", "ht-h", "-scale", "0.05", "-knob", "conc", "-values", "1,2,4"}

	var local, localErr bytes.Buffer
	if code := run(base, &local, &localErr); code != 0 {
		t.Fatalf("local run exited %d\nstderr: %s", code, localErr.String())
	}

	url := startSweepServer(t)
	var remote, remoteErr bytes.Buffer
	args := append(append([]string{}, base...), "-server", url, "-workers", "3")
	if code := run(args, &remote, &remoteErr); code != 0 {
		t.Fatalf("server run exited %d\nstderr: %s", code, remoteErr.String())
	}
	if remote.String() != local.String() {
		t.Errorf("server-mode table differs from local:\n--- local ---\n%s--- server ---\n%s",
			local.String(), remote.String())
	}

	// The cores knob is the other remotely expressible axis. 56 is the
	// paper's scaled machine on both paths, not a 56-core default one.
	cores := []string{"-bench", "ht-l", "-scale", "0.05", "-knob", "cores", "-values", "15,56"}
	var coresLocal, coresRemote, coresErr bytes.Buffer
	if code := run(cores, &coresLocal, &coresErr); code != 0 {
		t.Fatalf("local cores sweep exited %d\nstderr: %s", code, coresErr.String())
	}
	if code := run(append(cores, "-server", url), &coresRemote, &coresErr); code != 0 {
		t.Fatalf("server cores sweep exited %d\nstderr: %s", code, coresErr.String())
	}
	if coresRemote.String() != coresLocal.String() {
		t.Errorf("server-mode cores table differs from local:\n--- local ---\n%s--- server ---\n%s",
			coresLocal.String(), coresRemote.String())
	}
}

// TestSweepServerModePolicyGrid drives -policy-grid through a server.
func TestSweepServerModePolicyGrid(t *testing.T) {
	url := startSweepServer(t)
	var stdout, stderr bytes.Buffer
	code := run([]string{"-policy-grid", "-bench", "ht-l", "-scale", "0.05",
		"-server", url, "-workers", "4"}, &stdout, &stderr)
	if code != 0 {
		t.Fatalf("policy-grid server run exited %d\nstderr: %s", code, stderr.String())
	}
	out := stdout.String()
	for _, preset := range []string{"getm", "warptm", "eapg"} {
		if !strings.Contains(out, preset) {
			t.Errorf("policy-grid table is missing preset row %q:\n%s", preset, out)
		}
	}
}

// TestSweepServerModeUsageErrors pins the flag combinations -server refuses:
// simulator-internal knobs and store/engine flags that belong to the server.
func TestSweepServerModeUsageErrors(t *testing.T) {
	cases := []struct {
		args    []string
		mention string
	}{
		{[]string{"-server", "http://h:1", "-knob", "gran", "-values", "16"}, "conc and cores"},
		{[]string{"-server", "http://h:1", "-knob", "meta", "-values", "4"}, "conc and cores"},
		{[]string{"-server", "http://h:1", "-knob", "stall", "-values", "4"}, "conc and cores"},
		{[]string{"-server", "http://h:1", "-knob", "backoff", "-values", "64"}, "conc and cores"},
		{[]string{"-server", "http://h:1", "-knob", "inflight", "-values", "2"}, "conc and cores"},
		{[]string{"-server", "http://h:1", "-store", "d"}, "-store"},
		{[]string{"-server", "http://h:1", "-resume"}, "-store"},
		{[]string{"-server", "http://h:1", "-resume=false"}, "-store"},
		{[]string{"-server", "http://h:1", "-shards", "4"}, "-shards"},
	}
	for _, c := range cases {
		var stdout, stderr bytes.Buffer
		if code := run(c.args, &stdout, &stderr); code != 2 {
			t.Errorf("run(%v) exited %d, want 2\nstderr: %s", c.args, code, stderr.String())
			continue
		}
		if !strings.Contains(stderr.String(), c.mention) {
			t.Errorf("run(%v) error does not mention %q: %s", c.args, c.mention, stderr.String())
		}
	}
}

// TestSweepServerModeRefusal surfaces server-side refusals as sweep errors,
// not empty table cells.
func TestSweepServerModeRefusal(t *testing.T) {
	s := serve.New(serve.Config{Workers: 1, QueueDepth: 4, MaxScale: 0.01})
	ts := httptest.NewServer(s)
	defer func() {
		ts.Close()
		s.Drain(5 * time.Second)
	}()
	var stdout, stderr bytes.Buffer
	code := run([]string{"-bench", "ht-h", "-scale", "0.05", "-values", "1",
		"-server", ts.URL}, &stdout, &stderr)
	if code != 1 {
		t.Fatalf("over-scale server sweep exited %d, want 1\nstderr: %s", code, stderr.String())
	}
	if !strings.Contains(stderr.String(), "server refused") {
		t.Errorf("error does not surface the server refusal: %s", stderr.String())
	}
}
