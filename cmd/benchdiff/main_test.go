package main

import (
	"os"
	"reflect"
	"sort"
	"testing"

	"getm/internal/gpu"
	"getm/internal/harness"
	"getm/internal/policy"
	"getm/internal/stats"
	"getm/internal/store"
)

// Two store directories must reduce to comparable per-cell metric tables,
// joined by record description.
func TestParseStoreDir(t *testing.T) {
	dir := t.TempDir()
	st := store.Open(dir)
	if err := st.Degraded(); err != nil {
		t.Fatal(err)
	}

	mk := func(cycles, commits uint64) *stats.Metrics {
		m := stats.NewMetrics()
		m.TotalCycles = cycles
		m.TxExecCycles = cycles / 2
		m.TxWaitCycles = cycles / 4
		m.Commits = commits
		m.Aborts = commits / 10
		m.XbarUpBytes = 1000
		m.XbarDownBytes = 500
		return m
	}
	if err := st.Put("aaaa", "getm/ht-h", mk(5000, 400)); err != nil {
		t.Fatal(err)
	}
	if err := st.Put("bbbb", "getm/atm", mk(8000, 900)); err != nil {
		t.Fatal(err)
	}

	got, order, err := parseStoreDir(dir, "")
	if err != nil {
		t.Fatal(err)
	}
	if len(order) != 2 {
		t.Fatalf("got %d cells, want 2 (%v)", len(order), order)
	}
	// LoadDir sorts by description.
	if order[0] != "getm/atm" || order[1] != "getm/ht-h" {
		t.Fatalf("unexpected cell order %v", order)
	}
	if v := got[metricKey{"getm/ht-h", "cycles"}]; v != 5000 {
		t.Fatalf("ht-h cycles = %v, want 5000", v)
	}
	if v := got[metricKey{"getm/atm", "commits"}]; v != 900 {
		t.Fatalf("atm commits = %v, want 900", v)
	}
	if v := got[metricKey{"getm/ht-h", "xbar-B"}]; v != 1500 {
		t.Fatalf("ht-h xbar bytes = %v, want 1500", v)
	}
}

// A store directory and a flat file must be mutually unmixable but each
// parseable on its own; here we only pin the directory detector.
func TestIsDir(t *testing.T) {
	dir := t.TempDir()
	if !isDir(dir) {
		t.Error("isDir(tempdir) = false")
	}
	if isDir(dir + "/missing") {
		t.Error("isDir(missing) = true")
	}
}

// A recorded-baseline JSON must flatten to one metric per numeric leaf,
// keyed by its object path, with prose fields skipped — and parseFile must
// sniff the format from the leading brace.
func TestParseBenchJSON(t *testing.T) {
	path := t.TempDir() + "/bench.json"
	body := `{
  "description": "prose, not a metric",
  "recorded": "2026-08-08",
  "machine": {
    "bench_cmd": "go test ...",
    "serial_ns_per_op": 100,
    "sharded_w2_ns_per_op": 150,
    "nested": {"deep_value": 7}
  }
}`
	if err := os.WriteFile(path, []byte(body), 0o644); err != nil {
		t.Fatal(err)
	}
	m, order, err := parseFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if got := m[metricKey{"machine", "serial_ns_per_op"}]; got != 100 {
		t.Fatalf("serial_ns_per_op = %v, want 100", got)
	}
	if got := m[metricKey{"machine.nested", "deep_value"}]; got != 7 {
		t.Fatalf("deep_value = %v, want 7", got)
	}
	if _, ok := m[metricKey{"(top)", "description"}]; ok {
		t.Fatal("prose field leaked into metrics")
	}
	if len(order) != 2 {
		t.Fatalf("order = %v, want [machine machine.nested]", order)
	}
}

// Arrays flatten too: numeric elements key by index, object elements by
// positional path, so per-stage series recorded as JSON arrays diff
// element by element against a same-shape baseline.
func TestParseBenchJSONArrays(t *testing.T) {
	path := t.TempDir() + "/bench.json"
	body := `{
  "series": [10, 20, 30],
  "stages": [
    {"name": "queue", "p99_ms": 1.5},
    {"name": "sim", "p99_ms": 9.9}
  ],
  "grid": [[1, 2], [3, 4]]
}`
	if err := os.WriteFile(path, []byte(body), 0o644); err != nil {
		t.Fatal(err)
	}
	m, _, err := parseFile(path)
	if err != nil {
		t.Fatal(err)
	}
	checks := map[metricKey]float64{
		{"series", "[0]"}:       10,
		{"series", "[2]"}:       30,
		{"stages[0]", "p99_ms"}: 1.5,
		{"stages[1]", "p99_ms"}: 9.9,
		{"grid[1]", "[0]"}:      3,
	}
	for key, want := range checks {
		got, ok := m[key]
		if !ok || got != want {
			t.Errorf("%v.%v = %v (present=%v), want %v", key.bench, key.unit, got, ok, want)
		}
	}
	if _, ok := m[metricKey{"stages[0]", "name"}]; ok {
		t.Fatal("string array element leaked into metrics")
	}
}

// The committed serve-path baseline must stay diffable: every mix arm
// parses to numeric leaves (so `benchdiff BENCH_serve.json <new>` works),
// and the headline dedupe-heavy speedup is present and sane.
func TestParseCommittedServeBaseline(t *testing.T) {
	m, _, err := parseFile("../../BENCH_serve.json")
	if err != nil {
		t.Fatalf("BENCH_serve.json unparseable: %v", err)
	}
	for _, key := range []metricKey{
		{"dedupe_heavy.baseline", "rps"},
		{"dedupe_heavy.coalesced", "rps"},
		{"dedupe_heavy.coalesced", "p99_ms"},
		{"dedupe_heavy.coalesced", "shed_rate"},
		{"dedupe_heavy.coalesced", "server_p99_ms"},
		{"dedupe_heavy.coalesced", "server_sim_p99_ms"},
		{"dedupe_heavy.coalesced", "timings_n"},
		{"dedupe_heavy", "speedup_rps"},
		{"dedupe_free.baseline", "rps"},
		{"dedupe_free.coalesced", "rps"},
		{"config", "batch"},
	} {
		if _, ok := m[key]; !ok {
			t.Errorf("BENCH_serve.json missing metric %v.%v", key.bench, key.unit)
		}
	}
	if sp := m[metricKey{"dedupe_heavy", "speedup_rps"}]; sp < 5 {
		t.Fatalf("recorded dedupe-heavy speedup %.2fx below the 5x claim", sp)
	}
	if rps := m[metricKey{"dedupe_heavy.coalesced", "rps"}]; rps <= 0 {
		t.Fatalf("recorded coalesced rps %v", rps)
	}
	// The recorded baseline must carry the server-reported side of the
	// side-by-side comparison (bench-serve runs with -spans).
	if n := m[metricKey{"dedupe_heavy.coalesced", "timings_n"}]; n <= 0 {
		t.Fatalf("recorded baseline has no server-reported timings (timings_n %v)", n)
	}
}

// -policy narrows a store-dir diff by whole description segments: "warptm"
// must not match a "warptm-el" cell, and canonical tuples match exactly.
func TestMatchesPolicy(t *testing.T) {
	cases := []struct {
		desc, needle string
		want         bool
	}{
		{"warptm/ht-h", "warptm", true},
		{"warptm-el/ht-h", "warptm", false},
		{"warptm/ht-h", "warptm-el", false},
		{"getm|ht-h|c8|n16|m4|g4|b64|s42", "getm", true},
		{"eapg|ht-h|c8|n16|m4|g4|b64|s42", "getm", false},
		{"vm=lazy,cd=eager,res=fww,arb=ring/atm", "vm=lazy,cd=eager,res=fww,arb=ring", true},
		{"vm=lazy,cd=eager,res=fww,arb=ring/atm", "vm=lazy,cd=eager,res=fww,arb=local", false},
		{"getm/ht-h", "ht-h", true}, // segments, not positions: benches filter too
	}
	for _, c := range cases {
		if got := matchesPolicy(c.desc, c.needle); got != c.want {
			t.Errorf("matchesPolicy(%q, %q) = %v, want %v", c.desc, c.needle, got, c.want)
		}
	}
}

// parseStoreDir with a policy filter keeps only matching cells.
func TestParseStoreDirPolicyFilter(t *testing.T) {
	dir := t.TempDir()
	st := store.Open(dir)
	if err := st.Degraded(); err != nil {
		t.Fatal(err)
	}
	mk := func(cycles uint64) *stats.Metrics {
		m := stats.NewMetrics()
		m.TotalCycles = cycles
		m.Commits = 100
		return m
	}
	if err := st.Put("aaaa", "warptm/ht-h", mk(5000)); err != nil {
		t.Fatal(err)
	}
	if err := st.Put("bbbb", "warptm-el/ht-h", mk(6000)); err != nil {
		t.Fatal(err)
	}

	got, order, err := parseStoreDir(dir, "warptm")
	if err != nil {
		t.Fatal(err)
	}
	if len(order) != 1 || order[0] != "warptm/ht-h" {
		t.Fatalf("filtered cells = %v, want [warptm/ht-h]", order)
	}
	if v := got[metricKey{"warptm/ht-h", "cycles"}]; v != 5000 {
		t.Fatalf("cycles = %v, want 5000", v)
	}
}

// A non-preset point's cells are found in both description forms: the
// trailing tuple segment of stores written before the protocol identity was
// unified ("warptm|…|s0|vm=…"), and the leading "policy:vm=…|…" job key the
// harness (and so serve) writes now.
func TestParseStoreDirPolicyDescForms(t *testing.T) {
	p, err := policy.Parse("vm=lazy,res=fww,arb=local")
	if err != nil {
		t.Fatal(err)
	}
	needle := p.String()
	dir := t.TempDir()
	st := store.Open(dir)
	old := "warptm|atm|c2|n0|m0|g0|b0|s0|" + p.Canonical()
	m := stats.NewMetrics()
	m.TotalCycles = 1
	if err := st.Put("aaaa", old, m); err != nil {
		t.Fatal(err)
	}
	if err := st.Put("bbbb", "warptm|atm|c2|n0|m0|g0|b0|s0", m); err != nil {
		t.Fatal(err)
	}
	r := harness.NewRunner(0.02)
	r.Policy = p
	r.Store = st
	if _, err := r.RunE(harness.Job{Proto: gpu.ProtoWarpTM, Bench: "atm", Conc: 2}); err != nil {
		t.Fatal(err)
	}
	cur := "policy:" + p.Canonical() + "|atm|c2|n0|m0|g0|b0|s0"

	_, order, err := parseStoreDir(dir, needle)
	if err != nil {
		t.Fatal(err)
	}
	sort.Strings(order)
	if want := []string{cur, old}; !reflect.DeepEqual(order, want) {
		t.Fatalf("-policy %s matched %q, want %q", needle, order, want)
	}
}
