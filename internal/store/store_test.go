package store

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"strings"
	"sync"
	"testing"

	"getm/internal/gpu"
	"getm/internal/stats"
	"getm/internal/workloads"
)

// sampleMetrics builds a metrics snapshot exercising every field shape:
// scalar counters, counter maps, histograms, and float accumulators with
// values that would expose lossy encoding.
func sampleMetrics(salt uint64) *stats.Metrics {
	m := stats.NewMetrics()
	m.TotalCycles = 123456789 + salt
	m.TxExecCycles = 1111 + salt
	m.TxWaitCycles = 2222
	m.Commits = 3333
	m.Aborts = 444
	m.AbortsByCause.Inc("war", 100)
	m.AbortsByCause.Inc("waw-raw", 200)
	m.AbortsByCause.Inc("stall-full", 144)
	m.XbarUpBytes = 5 << 20
	m.XbarDownBytes = 7 << 20
	m.SilentCommits = 55
	for i := 0; i < 40; i++ {
		m.MetaAccessCycles.Add(i % 9)
	}
	m.StallBufMaxOccupancy = 17
	m.StallBufPerAddr.Add(0.1)
	m.StallBufPerAddr.Add(0.2) // sum 0.30000000000000004: exactness probe
	m.StallBufPerAddr.Add(float64(salt) / 3)
	m.Extra.Inc("llc-hits", 987654321)
	m.Extra.Inc("rollovers", 1)
	return m
}

func TestStoreRoundTripExact(t *testing.T) {
	dir := t.TempDir()
	s := Open(dir)
	if err := s.Degraded(); err != nil {
		t.Fatal(err)
	}
	want := sampleMetrics(7)
	key := Key(gpu.DefaultConfig(gpu.ProtoGETM), "ht-h", 1.0, 42)
	if err := s.Put(key, "getm|ht-h", want); err != nil {
		t.Fatal(err)
	}

	// Read through a fresh handle, as a resumed process would.
	got, ok := Open(dir).Get(key)
	if !ok {
		t.Fatal("stored record not found")
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("round trip not exact:\ngot  %+v\nwant %+v", got, want)
	}
}

func TestStoreMissingKey(t *testing.T) {
	s := Open(t.TempDir())
	if _, ok := s.Get("0000"); ok {
		t.Fatal("empty store returned a record")
	}
}

// Any corruption — a flipped payload byte, a flipped checksum, truncation,
// or outright garbage — must read as a miss, never as wrong data.
func TestStoreCorruptionDetected(t *testing.T) {
	dir := t.TempDir()
	s := Open(dir)
	key := Key(gpu.DefaultConfig(gpu.ProtoGETM), "atm", 0.5, 1)
	if err := s.Put(key, "cell", sampleMetrics(1)); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, key+".json")
	orig, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}

	mutate := map[string]func([]byte) []byte{
		"payload-bit-flip": func(b []byte) []byte {
			c := append([]byte(nil), b...)
			c[len(c)-10] ^= 0x40
			return c
		},
		"header-sum-flip": func(b []byte) []byte {
			c := append([]byte(nil), b...)
			c[len("getmstore 1 ")+3] ^= 0x01
			return c
		},
		"truncated": func(b []byte) []byte { return b[:len(b)/2] },
		"empty":     func(b []byte) []byte { return nil },
		"garbage":   func(b []byte) []byte { return []byte("not a record at all") },
		"wrong-schema": func(b []byte) []byte {
			c := append([]byte(nil), b...)
			c[len("getmstore ")] = '9'
			return c
		},
	}
	for name, fn := range mutate {
		if err := os.WriteFile(path, fn(orig), 0o644); err != nil {
			t.Fatal(err)
		}
		if _, ok := s.Get(key); ok {
			t.Errorf("%s: corrupt record accepted", name)
		}
	}

	// Restoring the original bytes restores the hit.
	if err := os.WriteFile(path, orig, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, ok := s.Get(key); !ok {
		t.Error("pristine record no longer readable")
	}
}

// Two handles on one directory (standing in for two processes) must not
// corrupt it under concurrent mixed put/get load: every record stays
// readable and correct throughout and afterwards.
func TestStoreConcurrentSharing(t *testing.T) {
	dir := t.TempDir()
	a, b := Open(dir), Open(dir)
	const keys = 8
	const rounds = 50

	keyOf := func(i int) string {
		return Key(gpu.DefaultConfig(gpu.ProtoGETM), fmt.Sprintf("bench-%d", i), 1, 42)
	}

	var wg sync.WaitGroup
	errs := make(chan error, 4*rounds*keys)
	for _, s := range []*Store{a, b} {
		for w := 0; w < 2; w++ {
			s := s
			wg.Add(1)
			go func() {
				defer wg.Done()
				for r := 0; r < rounds; r++ {
					for i := 0; i < keys; i++ {
						k := keyOf(i)
						// Deterministic per-key payload: both writers agree,
						// as deterministic simulations do.
						if err := s.Put(k, fmt.Sprintf("cell-%d", i), sampleMetrics(uint64(i))); err != nil {
							errs <- err
							return
						}
						if m, ok := s.Get(k); ok {
							if m.TotalCycles != 123456789+uint64(i) {
								errs <- fmt.Errorf("key %d: read wrong payload (cycles %d)", i, m.TotalCycles)
								return
							}
						}
					}
				}
			}()
		}
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}

	got, err := Open(dir).Keys()
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != keys {
		t.Fatalf("store holds %d records, want %d (leftover temp files or losses)", len(got), keys)
	}
	for i := 0; i < keys; i++ {
		m, ok := a.Get(keyOf(i))
		if !ok {
			t.Fatalf("key %d unreadable after concurrent load", i)
		}
		if !reflect.DeepEqual(m, sampleMetrics(uint64(i))) {
			t.Fatalf("key %d: payload corrupted", i)
		}
	}
}

// An unopenable directory degrades to a warning-carrying no-op store rather
// than failing the run.
func TestStoreDegradedUnwritable(t *testing.T) {
	file := filepath.Join(t.TempDir(), "plain-file")
	if err := os.WriteFile(file, []byte("x"), 0o644); err != nil {
		t.Fatal(err)
	}
	// A path under a regular file can never become a directory.
	s := Open(filepath.Join(file, "sub"))
	if s.Degraded() == nil {
		t.Fatal("store under a file reported healthy")
	}
	if err := s.Put("k", "d", sampleMetrics(0)); err != nil {
		t.Fatalf("degraded Put should be a silent no-op, got %v", err)
	}
	if _, ok := s.Get("k"); ok {
		t.Fatal("degraded Get returned a record")
	}
	if _, err := s.Keys(); err == nil {
		t.Fatal("degraded Keys should report the cause")
	}
}

// nonResult lists the gpu.Config fields that cannot change a completed
// result, each with its reason. keyConfig writes them as constants; every
// other field is keyed.
var nonResult = map[string]string{
	"Trace":                "observes the run only",
	"Record":               "records committed transactions for the checker; observes the run only",
	"CycleBudget":          "only complete results are stored",
	"CancelChunk":          "chunked stepping is cycle-identical to one run",
	"Shards":               "Validate accepts only 0",
	"GETM.FirstWriterWins": "policy.Build sets it from Protocol",
	"GETM.RingArb":         "policy.Build sets it from Protocol",
	"WarpTM.LocalArb":      "policy.Build sets it from Protocol",
	"WarpTM.Eager":         "policy.Build sets it from Protocol",
}

// runSkipped names the non-result fields whose perturbed run is not a
// complete run of the same machine.
var runSkipped = map[string]string{
	"CycleBudget": "truncates the run",
	"Shards":      "Validate rejects it",
}

// TestKeySensitivity walks every settable leaf of gpu.Config, recursively.
// Perturbing a field must change the key, unless the field is on the
// nonResult list: then the key must hold, and a short GETM and WarpTM run
// with the perturbed field must give byte-identical metrics. A new field
// that is neither keyed nor listed fails the walk. The workload parameters
// are keyed too.
func TestKeySensitivity(t *testing.T) {
	base := gpu.DefaultConfig(gpu.ProtoGETM)
	k0 := Key(base, "ht-h", 1.0, 42)

	distinct := map[string]string{}
	add := func(name, key string) {
		if key == k0 {
			t.Errorf("%s: key unchanged", name)
		}
		if prev, dup := distinct[key]; dup {
			t.Errorf("%s collides with %s", name, prev)
		}
		distinct[key] = name
	}

	visited := map[string]bool{}
	leaves := 0
	walkLeaves(reflect.TypeOf(base), "", func(path string) {
		leaves++
		visited[path] = true
		c := base
		perturb(t, path, &c)
		if _, listed := nonResult[path]; !listed {
			add(path, Key(c, "ht-h", 1.0, 42))
		} else if Key(c, "ht-h", 1.0, 42) != k0 {
			t.Errorf("%s is on the non-result list but changes the key", path)
		}
	})
	for path := range nonResult {
		if !visited[path] {
			t.Errorf("non-result field %s is not a gpu.Config field", path)
		}
	}
	t.Logf("%d leaves, %d non-result", leaves, len(nonResult))
	add("bench", Key(base, "atm", 1.0, 42))
	add("scale", Key(base, "ht-h", 0.5, 42))
	add("seed", Key(base, "ht-h", 1.0, 43))

	// Stable across calls.
	if Key(base, "ht-h", 1.0, 42) != k0 {
		t.Error("key not deterministic")
	}

	// A non-result field must not change what a run computes.
	for _, proto := range []gpu.Protocol{gpu.ProtoGETM, gpu.ProtoWarpTM} {
		cfg := gpu.DefaultConfig(proto)
		cfg.Core.MaxTxWarps = 8
		want := runMetrics(t, cfg)
		for path := range nonResult {
			if _, skip := runSkipped[path]; skip {
				continue
			}
			c := cfg
			perturb(t, path, &c)
			if got := runMetrics(t, c); !bytes.Equal(got, want) {
				t.Errorf("%s: perturbing non-result field %s changed the metrics", proto, path)
			}
		}
	}
}

// TestKeySchemaJSON pins the schema in readable form: the default GETM
// machine's key JSON is the bytes the store hashed when it marshaled
// gpu.Config itself. A failing golden address shows which field moved here.
func TestKeySchemaJSON(t *testing.T) {
	const want = `{"Protocol":"getm","Cores":15,"Partitions":6,` +
		`"Core":{"WarpsPerCore":48,"MaxTxWarps":0,"IntraWarpCyclesPerEntry":2,"SerializeCyclesPerEntry":1,"BackoffBase":64,"BackoffCap":8192,"LocalOpCycles":1},` +
		`"Xbar":{"SrcPorts":0,"DstPorts":0,"Latency":5,"FlitBytes":32},` +
		`"Partition":{"LLCBytes":131072,"LLCWays":8,"LineBytes":128,"LLCLatency":60,"DRAMBanks":8,"DRAMLatency":200,"DRAMBankBusy":36,"ServiceRate":1},` +
		`"GETM":{"GranularityBytes":32,"PreciseEntries":4096,"CuckooWays":4,"StashEntries":4,"MaxKicks":8,"ApproxEntries":1024,"ApproxWays":4,"StallLines":4,"StallEntriesPerLine":4,"CommitBytesPerCycle":32,"TSBits":64,"OverflowPenalty":20,"BackoffBase":64,"BackoffCap":4096},` +
		`"WarpTM":{"TCDEntries":1024,"TCDWays":4,"ValidateEntriesPerCycle":1,"CommitBytesPerCycle":32,"MaxInFlight":2,"Eager":false},` +
		`"LineBytes":128,"Seed":1,"Record":false,"MaxCycles":200000000,"CycleBudget":0,"CancelChunk":0,"Trace":null,"Shards":0}`
	got, err := json.Marshal(keyOf(gpu.DefaultConfig(gpu.ProtoGETM)))
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != want {
		t.Errorf("key JSON moved:\n got %s\nwant %s", got, want)
	}
}

// raceEnabled is set when the race detector is on (race_test.go).
var raceEnabled bool

// TestKeyAllocs gates what a key costs: a paper-suite pass computes 1,155
// of them. The bounds are what Key cost when it marshaled gpu.Config itself
// (8 objects, 1,752 B).
func TestKeyAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("under the race detector sync.Pool drops pooled JSON encoders, so every key allocates more")
	}
	cfg := gpu.DefaultConfig(gpu.ProtoGETM)
	key := func() { Key(cfg, "ht-h", 0.1, 42) }
	if n := testing.AllocsPerRun(200, key); n > 8 {
		t.Errorf("Key allocates %v objects per call, want at most 8", n)
	}
	// Bytes over many calls, so the runtime's own allocations average out.
	const runs = 5000
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	runtime.GC()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		key()
	}
	runtime.ReadMemStats(&after)
	if b := (after.TotalAlloc - before.TotalAlloc) / runs; b > 1752 {
		t.Errorf("Key allocates %d B per call, want at most 1752", b)
	}
}

// walkLeaves calls visit with the dotted path of every non-struct field
// under t.
func walkLeaves(t reflect.Type, path string, visit func(string)) {
	if t.Kind() != reflect.Struct {
		visit(path)
		return
	}
	for i := 0; i < t.NumField(); i++ {
		name := t.Field(i).Name
		if path != "" {
			name = path + "." + name
		}
		walkLeaves(t.Field(i).Type, name, visit)
	}
}

// perturb changes the field of c at path to another value of its type.
func perturb(t *testing.T, path string, c *gpu.Config) {
	t.Helper()
	f := reflect.ValueOf(c).Elem()
	for _, name := range strings.Split(path, ".") {
		f = f.FieldByName(name)
	}
	switch f.Kind() {
	case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
		f.SetInt(f.Int() + 1)
	case reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64:
		f.SetUint(f.Uint() + 1)
	case reflect.Bool:
		f.SetBool(!f.Bool())
	case reflect.String:
		f.SetString(f.String() + "x")
	case reflect.Pointer:
		f.Set(reflect.New(f.Type().Elem()))
	default:
		t.Fatalf("%s: no perturbation for a %s field", path, f.Kind())
	}
}

// runMetrics runs ht-h at scale 0.05 on cfg and returns its metrics' JSON.
// The context is cancellable, so the engine runs in CancelChunk chunks.
func runMetrics(t *testing.T, cfg gpu.Config) []byte {
	t.Helper()
	k, err := workloads.Build("ht-h", workloads.TM, workloads.Params{Scale: 0.05, Seed: 42})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	res, err := gpu.RunContext(ctx, cfg, k)
	if err != nil {
		t.Fatal(err)
	}
	b, err := json.Marshal(res.Metrics)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

func TestLoadDir(t *testing.T) {
	dir := t.TempDir()
	s := Open(dir)
	for i := 0; i < 3; i++ {
		key := Key(gpu.DefaultConfig(gpu.ProtoGETM), fmt.Sprintf("b%d", i), 1, 42)
		if err := s.Put(key, fmt.Sprintf("desc-%d", i), sampleMetrics(uint64(i))); err != nil {
			t.Fatal(err)
		}
	}
	// A corrupt file is skipped, not fatal.
	if err := os.WriteFile(filepath.Join(dir, "deadbeef.json"), []byte("junk"), 0o644); err != nil {
		t.Fatal(err)
	}
	recs, err := LoadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 3 {
		t.Fatalf("LoadDir returned %d records, want 3", len(recs))
	}
	for i, r := range recs {
		if r.Desc != fmt.Sprintf("desc-%d", i) {
			t.Fatalf("records not sorted by desc: %v", recs)
		}
	}
	if _, err := LoadDir(filepath.Join(dir, "missing")); err == nil {
		t.Fatal("LoadDir on a missing directory should fail")
	}
}

// Truncated metrics must never enter the store, even if a caller forgets the
// guard: a partial snapshot persisted as a complete record would be served
// as the cell's true result forever after.
func TestPutRefusesTruncated(t *testing.T) {
	s := Open(t.TempDir())
	m := stats.NewMetrics()
	m.TotalCycles = 123
	m.Truncated = true
	if err := s.Put("deadbeef", "partial", m); err == nil {
		t.Fatal("Put accepted truncated metrics")
	}
	if keys, _ := s.Keys(); len(keys) != 0 {
		t.Fatalf("truncated record reached disk: %v", keys)
	}
	m.Truncated = false
	if err := s.Put("deadbeef", "complete", m); err != nil {
		t.Fatalf("Put refused complete metrics: %v", err)
	}
	if got, ok := s.Get("deadbeef"); !ok || got.TotalCycles != 123 {
		t.Fatalf("round-trip failed: %v %v", got, ok)
	}
}
