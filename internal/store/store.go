// Package store persists simulation results on disk so that no process ever
// re-pays for a run a previous process already completed. Cycle-level
// simulation is the expensive resource — full experiment grids take orders of
// magnitude longer than the analysis that consumes them — so the store is the
// durable second tier behind harness.Runner's in-memory cache and the engine
// of the CLIs' -store/-resume flags.
//
// Design:
//
//   - Content-addressed: a record is keyed by Key, a SHA-256 over the
//     canonical JSON of the gpu.Config (non-semantic fields zeroed), the
//     workload parameters (benchmark, scale, seed), and SchemaVersion.
//     Changing any input that could change the result — or the record schema
//     itself — changes the key, so stale records are never returned; they are
//     simply unreachable and the run recomputes.
//   - Crash-safe: writes go to a temp file in the store directory, are
//     fsynced, and then atomically renamed into place. A crash mid-write
//     leaves at worst an ignored temp file; readers only ever see complete
//     records. Atomic rename also makes concurrent writers safe: two
//     processes racing on one key both write valid, identical (simulations
//     are deterministic) records, and either rename winning is correct.
//   - Self-verifying: each record carries a SHA-256 checksum of its payload
//     in a header line. A bit-flipped, truncated, or otherwise mangled record
//     fails verification and reads as a miss, so the cell silently re-runs.
//   - Degradable: an unwritable directory does not fail the run. Open returns
//     a degraded store whose Get always misses and whose Put is a no-op;
//     Degraded reports why so callers can warn once and continue in-memory.
package store

import (
	"bufio"
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync/atomic"

	"getm/internal/gpu"
	"getm/internal/stats"
)

// SchemaVersion is baked into every key; bump it whenever the meaning of a
// stored result changes (metrics fields, simulator semantics, key inputs) so
// every old record is invalidated at once.
const SchemaVersion = 1

// header is the first line of every record file: magic, schema, and the hex
// SHA-256 of the payload bytes that follow.
const magic = "getmstore"

// Record is one persisted simulation result.
type Record struct {
	// Key is the content address (also the file's base name).
	Key string `json:"key"`
	// Desc is a human-readable cell label (e.g. "getm|ht-h|c8|n0|m0|g0"),
	// carried for store diffing and logs; it does not affect the key.
	Desc string `json:"desc"`
	// Metrics is the run's measurement snapshot.
	Metrics *stats.Metrics `json:"metrics"`
}

// FillFunc fetches the raw record file for a key from somewhere other than
// the local directory (in practice: a cluster peer's /v1/store endpoint). It
// returns the complete record bytes — header line plus payload — and whether
// the fetch found anything. The bytes are verified exactly like a local file
// before they are trusted, so a lying or corrupt source degrades to a miss.
type FillFunc func(key string) ([]byte, bool)

// Store is an on-disk result store rooted at one directory. The zero value
// is not usable; call Open. All methods are safe for concurrent use from any
// number of goroutines and processes sharing the directory.
type Store struct {
	dir  string
	err  error // non-nil: degraded, all operations are no-ops
	fill atomic.Pointer[FillFunc]
}

// Open roots a store at dir, creating it if needed. Open never fails: if the
// directory cannot be created or written, the returned store is degraded —
// Get always misses and Put does nothing — and Degraded reports the cause so
// the caller can warn and continue with in-memory caching only.
func Open(dir string) *Store {
	s := &Store{dir: dir}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		s.err = err
		return s
	}
	// Probe writability now, not at the first Put deep inside a run.
	f, err := os.CreateTemp(dir, ".probe-*")
	if err != nil {
		s.err = err
		return s
	}
	f.Close()
	os.Remove(f.Name())
	return s
}

// Dir returns the store's root directory.
func (s *Store) Dir() string { return s.dir }

// Degraded returns the reason the store is operating as a no-op (unwritable
// directory), or nil if it is fully functional.
func (s *Store) Degraded() error { return s.err }

// Key returns the canonical content address for one simulation: the hex
// SHA-256 of SchemaVersion, the gpu.Config, and the workload parameters.
// Fields that cannot change the (completed) result — Trace, Record,
// CycleBudget — are zeroed first, so e.g. a traced run and an untraced run
// share a record (they are cycle-identical by construction). The deprecated
// Shards field stays in the hashed JSON at its only accepted value, 0, so
// every address written before the sharded engine was removed still holds.
//
// cfg.Protocol is hashed as is: it is already the canonical identity
// (gpu.ProtocolOf), so a preset point keys as its legacy protocol name and
// stored sweeps stay warm, and any other matrix point as "policy:" plus its
// canonical axis tuple.
func Key(cfg gpu.Config, bench string, scale float64, seed uint64) string {
	cfg.Trace = nil
	cfg.Record = false
	cfg.CycleBudget = 0
	b, err := json.Marshal(cfg)
	if err != nil {
		// All Config fields are plain data; this cannot happen. Degrade to a
		// key that never collides with a real one rather than panicking.
		return "unkeyable"
	}
	h := sha256.New()
	fmt.Fprintf(h, "%s/v%d\n", magic, SchemaVersion)
	h.Write(b)
	fmt.Fprintf(h, "\n%s|%g|%d", bench, scale, seed)
	return hex.EncodeToString(h.Sum(nil))
}

func (s *Store) path(key string) string {
	return filepath.Join(s.dir, key+".json")
}

// Put persists one result under key. Degraded stores and nil metrics are
// no-ops. The write is atomic (temp file + fsync + rename), so concurrent
// readers and writers — in this or any other process — never observe a
// partial record.
func (s *Store) Put(key, desc string, m *stats.Metrics) error {
	if s.err != nil || m == nil {
		return nil
	}
	if m.Truncated {
		// A truncated snapshot persisted as a complete record would be served
		// forever after as the cell's true result. Callers already skip
		// truncated runs; this is the backstop that makes the invariant local.
		return fmt.Errorf("store: refusing to persist truncated metrics for %s", key)
	}
	payload, err := json.Marshal(Record{Key: key, Desc: desc, Metrics: m})
	if err != nil {
		return fmt.Errorf("store: encode %s: %w", key, err)
	}
	sum := sha256.Sum256(payload)
	f, err := os.CreateTemp(s.dir, ".put-*")
	if err != nil {
		return fmt.Errorf("store: %w", err)
	}
	tmp := f.Name()
	w := bufio.NewWriter(f)
	fmt.Fprintf(w, "%s %d %s\n", magic, SchemaVersion, hex.EncodeToString(sum[:]))
	w.Write(payload)
	if err := w.Flush(); err == nil {
		err = f.Sync()
	} else {
		f.Sync()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		os.Remove(tmp)
		return fmt.Errorf("store: write %s: %w", key, err)
	}
	if err := os.Rename(tmp, s.path(key)); err != nil {
		os.Remove(tmp)
		return fmt.Errorf("store: commit %s: %w", key, err)
	}
	return nil
}

// PutBatch persists a set of records as one batched commit: every record's
// temp file is written first, then all are fsynced together, then all are
// renamed into place, and finally the directory itself is synced so the
// renames are durable. Each individual record keeps the Put crash-safety
// contract (a reader only ever sees a complete, checksummed file); the batch
// merely clusters the expensive syncs so a write-behind caller pays for them
// once per flush instead of once per result. Records with nil metrics are
// skipped; truncated metrics are refused like Put refuses them. Failures are
// per-record and joined — one bad record does not abort the rest.
func (s *Store) PutBatch(recs []Record) error {
	if s.err != nil || len(recs) == 0 {
		return nil
	}
	type staged struct {
		f   *os.File
		tmp string
		key string
	}
	var errs []error
	fail := func(format string, args ...any) {
		errs = append(errs, fmt.Errorf(format, args...))
	}
	stagedRecs := make([]staged, 0, len(recs))

	// Phase 1: write every temp file (buffered, no sync yet).
	for _, rec := range recs {
		if rec.Metrics == nil {
			continue
		}
		if rec.Metrics.Truncated {
			fail("store: refusing to persist truncated metrics for %s", rec.Key)
			continue
		}
		payload, err := json.Marshal(rec)
		if err != nil {
			fail("store: encode %s: %w", rec.Key, err)
			continue
		}
		sum := sha256.Sum256(payload)
		f, err := os.CreateTemp(s.dir, ".put-*")
		if err != nil {
			fail("store: %w", err)
			continue
		}
		w := bufio.NewWriter(f)
		fmt.Fprintf(w, "%s %d %s\n", magic, SchemaVersion, hex.EncodeToString(sum[:]))
		w.Write(payload)
		if err := w.Flush(); err != nil {
			f.Close()
			os.Remove(f.Name())
			fail("store: write %s: %w", rec.Key, err)
			continue
		}
		stagedRecs = append(stagedRecs, staged{f: f, tmp: f.Name(), key: rec.Key})
	}

	// Phase 2+3: sync all staged files back to back, then rename them into
	// place. Issuing the syncs together lets the kernel coalesce the flushes.
	committed := 0
	for _, st := range stagedRecs {
		err := st.f.Sync()
		if cerr := st.f.Close(); err == nil {
			err = cerr
		}
		if err == nil {
			err = os.Rename(st.tmp, s.path(st.key))
		}
		if err != nil {
			os.Remove(st.tmp)
			fail("store: commit %s: %w", st.key, err)
			continue
		}
		committed++
	}

	// Phase 4: one directory sync makes every rename in the batch durable.
	if committed > 0 {
		if d, err := os.Open(s.dir); err == nil {
			d.Sync()
			d.Close()
		}
	}
	return errors.Join(errs...)
}

// SetFill installs a read-through fill source consulted when Get misses
// locally. Filled bytes are verified like any record file and, on success,
// written through to the local directory so the next read is local. A nil
// fill (the default) restores plain local-only reads. Safe to call
// concurrently with readers, though the usual pattern is to install the fill
// once at startup.
func (s *Store) SetFill(fill FillFunc) {
	if fill == nil {
		s.fill.Store(nil)
		return
	}
	s.fill.Store(&fill)
}

// Get returns the stored metrics for key, or ok=false on any miss: no
// record, degraded store, or a record that fails checksum/schema/shape
// verification (corruption reads as a miss so the cell re-runs). When a fill
// source is installed (SetFill), a local miss consults it before giving up;
// a verified filled record is written through to the local directory.
func (s *Store) Get(key string) (*stats.Metrics, bool) {
	rec, err := s.load(key)
	if err == nil {
		return rec.Metrics, true
	}
	fp := s.fill.Load()
	if fp == nil || s.err != nil || !validKey(key) {
		return nil, false
	}
	raw, ok := (*fp)(key)
	if !ok {
		return nil, false
	}
	rec, err = decode(key, raw)
	if err != nil {
		return nil, false
	}
	// Write-through: commit the verified bytes locally with the same
	// temp+fsync+rename discipline as Put, so the fill is paid once per node.
	// A write failure is not a read failure — the record is already verified.
	s.putRaw(key, raw)
	return rec.Metrics, true
}

// ReadRaw returns the complete, verified raw record file for key — header
// line plus payload — from the local directory only. It never consults the
// fill source (it is the serving side of a fill, and must not recurse into
// peer fetches). Malformed keys and unverifiable records read as misses.
func (s *Store) ReadRaw(key string) ([]byte, bool) {
	if s.err != nil || !validKey(key) {
		return nil, false
	}
	data, err := os.ReadFile(s.path(key))
	if err != nil {
		return nil, false
	}
	if _, err := decode(key, data); err != nil {
		return nil, false
	}
	return data, true
}

// putRaw atomically commits pre-encoded record bytes (already verified by
// decode) under key, with the same temp-file + fsync + rename discipline as
// Put.
func (s *Store) putRaw(key string, data []byte) error {
	if s.err != nil {
		return nil
	}
	f, err := os.CreateTemp(s.dir, ".put-*")
	if err != nil {
		return fmt.Errorf("store: %w", err)
	}
	tmp := f.Name()
	_, err = f.Write(data)
	if err == nil {
		err = f.Sync()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		os.Remove(tmp)
		return fmt.Errorf("store: write %s: %w", key, err)
	}
	if err := os.Rename(tmp, s.path(key)); err != nil {
		os.Remove(tmp)
		return fmt.Errorf("store: commit %s: %w", key, err)
	}
	return nil
}

// validKey reports whether key looks like a content address (lowercase hex,
// no path metacharacters). It is the store-side backstop against a caller
// passing request-derived strings into filesystem paths; serving layers
// validate more strictly at the edge.
func validKey(key string) bool {
	if key == "" || len(key) > 128 {
		return false
	}
	for i := 0; i < len(key); i++ {
		c := key[i]
		if (c < '0' || c > '9') && (c < 'a' || c > 'f') {
			return false
		}
	}
	return true
}

// load reads and verifies one record file.
func (s *Store) load(key string) (Record, error) {
	if s.err != nil {
		return Record{}, s.err
	}
	data, err := os.ReadFile(s.path(key))
	if err != nil {
		return Record{}, err
	}
	return decode(key, data)
}

// decode verifies a raw record file: header shape, schema version, payload
// checksum, JSON validity, and key agreement.
func decode(key string, data []byte) (Record, error) {
	nl := bytes.IndexByte(data, '\n')
	if nl < 0 {
		return Record{}, fmt.Errorf("store: %s: truncated header", key)
	}
	fields := strings.Fields(string(data[:nl]))
	if len(fields) != 3 || fields[0] != magic {
		return Record{}, fmt.Errorf("store: %s: bad header", key)
	}
	if fields[1] != fmt.Sprint(SchemaVersion) {
		return Record{}, fmt.Errorf("store: %s: schema %s, want %d", key, fields[1], SchemaVersion)
	}
	payload := data[nl+1:]
	sum := sha256.Sum256(payload)
	if hex.EncodeToString(sum[:]) != fields[2] {
		return Record{}, fmt.Errorf("store: %s: checksum mismatch (corrupt or truncated record)", key)
	}
	var rec Record
	if err := json.Unmarshal(payload, &rec); err != nil {
		return Record{}, fmt.Errorf("store: %s: %w", key, err)
	}
	if rec.Key != key {
		return Record{}, fmt.Errorf("store: %s: record claims key %s", key, rec.Key)
	}
	if rec.Metrics == nil {
		return Record{}, fmt.Errorf("store: %s: record has no metrics", key)
	}
	return rec, nil
}

// Keys lists the keys of every well-formed-looking record file (by name; the
// records themselves are verified on Get), sorted.
func (s *Store) Keys() ([]string, error) {
	if s.err != nil {
		return nil, s.err
	}
	ents, err := os.ReadDir(s.dir)
	if err != nil {
		return nil, err
	}
	var keys []string
	for _, e := range ents {
		name := e.Name()
		if e.IsDir() || !strings.HasSuffix(name, ".json") || strings.HasPrefix(name, ".") {
			continue
		}
		keys = append(keys, strings.TrimSuffix(name, ".json"))
	}
	sort.Strings(keys)
	return keys, nil
}

// LoadDir opens dir read-only and returns every verifiable record in it,
// sorted by Desc then Key — the cell-by-cell view cmd/benchdiff diffs.
// Corrupt records are skipped, not fatal.
func LoadDir(dir string) ([]Record, error) {
	if _, err := os.Stat(dir); err != nil {
		return nil, err
	}
	s := &Store{dir: dir}
	keys, err := s.Keys()
	if err != nil {
		return nil, err
	}
	var recs []Record
	for _, k := range keys {
		rec, err := s.load(k)
		if err != nil {
			continue
		}
		recs = append(recs, rec)
	}
	sort.Slice(recs, func(i, j int) bool {
		if recs[i].Desc != recs[j].Desc {
			return recs[i].Desc < recs[j].Desc
		}
		return recs[i].Key < recs[j].Key
	})
	return recs, nil
}
