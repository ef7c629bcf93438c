package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// An explicit -resume without -store is a misconfiguration, not a silent
// no-op: there is nothing to resume from.
func TestResumeRequiresStore(t *testing.T) {
	for _, arg := range []string{"-resume", "-resume=false"} {
		var stdout, stderr bytes.Buffer
		code := run([]string{arg, "-list"}, &stdout, &stderr)
		if code != 2 {
			t.Errorf("%s without -store exited %d, want 2", arg, code)
		}
		if !strings.Contains(stderr.String(), "-store") {
			t.Errorf("%s error does not mention -store: %s", arg, stderr.String())
		}
	}
}

// The report on stdout is the contract: adding -store (cold or resumed) or a
// generous -timeout must not change a single byte of it, and the store
// diagnostics stay on stderr.
func TestStdoutByteIdenticalAcrossModes(t *testing.T) {
	if testing.Short() {
		t.Skip("runs real experiments")
	}
	// Flag parsing stops at the first positional argument, so variant flags
	// go before the experiment id.
	base := []string{"-scale", "0.05"}
	dir := filepath.Join(t.TempDir(), "results")

	var plain, plainErr bytes.Buffer
	if code := run(append(append([]string{}, base...), "fig11"), &plain, &plainErr); code != 0 {
		t.Fatalf("plain run exited %d\nstderr: %s", code, plainErr.String())
	}
	if !strings.Contains(plain.String(), "fig11") {
		t.Fatalf("plain run produced no report:\n%s", plain.String())
	}

	for _, v := range []struct {
		name string
		args []string
	}{
		{"cold store", append(append([]string{}, base...), "-store", dir, "fig11")},
		{"resumed store", append(append([]string{}, base...), "-store", dir, "fig11")},
		{"timeout", append(append([]string{}, base...), "-timeout", "120s", "fig11")},
	} {
		var stdout, stderr bytes.Buffer
		if code := run(v.args, &stdout, &stderr); code != 0 {
			t.Fatalf("%s run exited %d\nstderr: %s", v.name, code, stderr.String())
		}
		if stdout.String() != plain.String() {
			t.Errorf("%s stdout differs from plain run", v.name)
		}
		if strings.Contains(stdout.String(), "reused from store") {
			t.Errorf("%s leaked store diagnostics to stdout", v.name)
		}
	}
}

// A store write that fails prints one "warning: store: …" line on stderr,
// with the store's prefix once, with or without -v. A directory under a
// record's file name makes the commit's rename fail.
func TestStoreWriteFailureWarns(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "results")
	args := []string{"-scale", "0.03", "-store", dir, "fig3"}
	var out1, err1 bytes.Buffer
	if code := run(args, &out1, &err1); code != 0 {
		t.Fatalf("first run exited %d\nstderr: %s", code, err1.String())
	}
	ents, err := os.ReadDir(dir)
	if err != nil || len(ents) == 0 {
		t.Fatalf("store holds %d records (%v)", len(ents), err)
	}
	path := filepath.Join(dir, ents[0].Name())
	if err := os.Remove(path); err != nil {
		t.Fatal(err)
	}
	if err := os.Mkdir(path, 0o755); err != nil {
		t.Fatal(err)
	}

	for _, extra := range [][]string{nil, {"-v"}} {
		var stdout, stderr bytes.Buffer
		if code := run(append(extra, args...), &stdout, &stderr); code != 0 {
			t.Fatalf("%v run exited %d\nstderr: %s", extra, code, stderr.String())
		}
		if stdout.String() != out1.String() {
			t.Errorf("%v report changed", extra)
		}
		if msg := stderr.String(); strings.Count(msg, "warning: store: ") != 1 || strings.Contains(msg, "store: store:") {
			t.Errorf("%v: want one \"warning: store: …\" line:\n%s", extra, msg)
		}
	}
}

// -list writes the experiment ids to stdout (it is data, not a diagnostic).
func TestListOnStdout(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if code := run([]string{"-list"}, &stdout, &stderr); code != 0 {
		t.Fatalf("-list exited %d", code)
	}
	for _, id := range []string{"fig11", "table4"} {
		if !strings.Contains(stdout.String(), id) {
			t.Errorf("-list stdout missing %s:\n%s", id, stdout.String())
		}
	}
	if stderr.Len() != 0 {
		t.Errorf("-list wrote to stderr: %s", stderr.String())
	}
}

// A scale that is not finite and positive is a usage error: exit 2, one
// "error:" line and nothing on stdout, not a report of n/a cells.
// An unknown experiment id is a usage error found before anything runs:
// exit 2, one error line, nothing on stdout, and no -trace reference run
// written.
func TestUnknownExperiment(t *testing.T) {
	tracePath := filepath.Join(t.TempDir(), "ref.trace")
	for _, args := range [][]string{
		{"nosuch"},
		{"fig3", "nosuch"},
		{"-trace", tracePath, "nosuch"},
	} {
		var stdout, stderr bytes.Buffer
		code := run(append([]string{"-scale", "0.03"}, args...), &stdout, &stderr)
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
	if _, err := os.Stat(tracePath); !os.IsNotExist(err) {
		t.Errorf("the traced reference run ran before the id was rejected (stat: %v)", err)
	}
}

func TestInvalidScale(t *testing.T) {
	for _, s := range []string{"-1", "0", "NaN", "+Inf"} {
		var stdout, stderr bytes.Buffer
		code := run([]string{"-scale", s, "fig3"}, &stdout, &stderr)
		if code != 2 {
			t.Errorf("-scale %s exited %d, want 2 (stderr: %s)", s, code, stderr.String())
		}
		if msg := stderr.String(); !strings.HasPrefix(msg, "error: ") || strings.Count(msg, "\n") != 1 {
			t.Errorf("-scale %s: want one error line, got:\n%s", s, msg)
		}
		if stdout.Len() != 0 {
			t.Errorf("-scale %s wrote to stdout:\n%s", s, stdout.String())
		}
	}
}
