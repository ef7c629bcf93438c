package serve

import (
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"getm/internal/store"
)

// testCluster is an in-process coordinator/worker fabric on loopback
// listeners: real HTTP between nodes, every Server reachable for white-box
// assertions (simulated counts, peer tables, stub substitution).
type testCluster struct {
	coord   *testNode
	workers []*testNode
}

type testNode struct {
	s   *Server
	srv *http.Server
	url string
}

// kill severs the node from the network — listener and live connections —
// without draining it, simulating a crashed worker. Its in-process state
// stays readable.
func (n *testNode) kill() { n.srv.Close() }

// clusterOpts tweaks the harness per test.
type clusterOpts struct {
	workerCfg  func(i int, cfg *Config) // per-worker config hook
	coordCfg   func(cfg *Config)
	sharedDir  string // non-empty: all nodes share one store directory
	workerDirs []string
}

// newTestCluster starts `workers` worker nodes plus one coordinator routing
// across them. Every node gets a store; workers peer with each other (store
// sync), the coordinator peers with every worker (routing).
func newTestCluster(t *testing.T, workers int, opts clusterOpts) *testCluster {
	t.Helper()
	n := workers + 1 // + coordinator
	lns := make([]net.Listener, n)
	urls := make([]string, n)
	for i := range lns {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		lns[i] = ln
		urls[i] = "http://" + ln.Addr().String()
	}
	workerURLs := urls[:workers]

	tc := &testCluster{}
	dirFor := func(i int) string {
		if opts.sharedDir != "" {
			return opts.sharedDir
		}
		if i < len(opts.workerDirs) {
			return opts.workerDirs[i]
		}
		return t.TempDir()
	}
	start := func(i int, cfg Config) *testNode {
		if err := cfg.Validate(); err != nil {
			t.Fatalf("node %d config: %v", i, err)
		}
		s := New(cfg)
		node := &testNode{s: s, srv: &http.Server{Handler: s}, url: urls[i]}
		go node.srv.Serve(lns[i])
		return node
	}
	for i := 0; i < workers; i++ {
		var peers []string
		for j := 0; j < workers; j++ {
			if j != i {
				peers = append(peers, workerURLs[j])
			}
		}
		cfg := Config{
			Role:          RoleWorker,
			Peers:         peers,
			Workers:       2,
			QueueDepth:    64,
			Store:         store.Open(dirFor(i)),
			FlushInterval: 5 * time.Millisecond,
			ProbeInterval: 25 * time.Millisecond,
		}
		if opts.workerCfg != nil {
			opts.workerCfg(i, &cfg)
		}
		tc.workers = append(tc.workers, start(i, cfg))
	}
	ccfg := Config{
		Role:          RoleCoordinator,
		Peers:         workerURLs,
		Workers:       2,
		QueueDepth:    64,
		Store:         store.Open(dirFor(workers)),
		FlushInterval: 5 * time.Millisecond,
		ProbeInterval: 25 * time.Millisecond,
	}
	if opts.coordCfg != nil {
		opts.coordCfg(&ccfg)
	}
	tc.coord = start(workers, ccfg)

	t.Cleanup(func() {
		tc.coord.srv.Close()
		tc.coord.s.Drain(5 * time.Second)
		for _, w := range tc.workers {
			w.srv.Close()
			w.s.Drain(5 * time.Second)
		}
	})
	return tc
}

// waitProbed blocks until the server's prober has seen every peer healthy
// with positive headroom. Tests that assert on shard distribution call this
// first: before the first probe lands, a peer's headroom reads 0 and the
// planner would (correctly, but unhelpfully for the assertion) steal its
// work.
func waitProbed(t *testing.T, s *Server) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for {
		ready := true
		for _, p := range s.cluster.peers {
			if !p.healthy.Load() || p.headroom.Load() <= 0 {
				ready = false
			}
		}
		if ready {
			return
		}
		if time.Now().After(deadline) {
			t.Fatal("prober never saw every peer healthy with headroom")
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// simulatedTotal sums getm_serve_simulated_total across the fabric — the
// "no cell paid for twice" acceptance signal.
func (tc *testCluster) simulatedTotal() int {
	n := tc.coord.s.pool.runner.Simulated()
	for _, w := range tc.workers {
		n += w.s.pool.runner.Simulated()
	}
	return n
}

// paperGrid is the full protocol × benchmark sweep the acceptance criteria
// reference, at test scale.
func paperGrid() []string {
	var specs []string
	for _, proto := range []string{"getm", "warptm", "warptm-el", "eapg", "fglock"} {
		for _, bench := range []string{"ht-h", "ht-m", "ht-l", "atm"} {
			specs = append(specs,
				fmt.Sprintf(`{"protocol":%q,"benchmark":%q,"scale":0.02}`, proto, bench))
		}
	}
	return specs
}

// submitAll posts each spec synchronously through url and returns the
// decoded responses, failing the test on any non-done outcome.
func submitAll(t *testing.T, url string, specs []string) []Response {
	t.Helper()
	out := make([]Response, len(specs))
	for i, spec := range specs {
		resp := postRun(t, url, spec)
		if resp.StatusCode != http.StatusOK {
			b, _ := io.ReadAll(resp.Body)
			resp.Body.Close()
			t.Fatalf("spec %s: status %d: %s", spec, resp.StatusCode, b)
		}
		out[i] = decodeRun(t, resp)
		if out[i].Status != "done" {
			t.Fatalf("spec %s: status %q (%s)", spec, out[i].Status, out[i].Error)
		}
	}
	return out
}

// storeBytes maps key -> raw record bytes for every committed record in dir.
func storeBytes(t *testing.T, dir string) map[string][]byte {
	t.Helper()
	out := map[string][]byte{}
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range ents {
		name := e.Name()
		if !strings.HasSuffix(name, ".json") || strings.HasPrefix(name, ".") {
			continue
		}
		b, err := os.ReadFile(filepath.Join(dir, name))
		if err != nil {
			t.Fatal(err)
		}
		out[strings.TrimSuffix(name, ".json")] = b
	}
	return out
}

// waitRecords blocks until the union of the store dirs holds at least n
// committed records. (Polling the coalescers' pending counts is not enough:
// a flush empties pending before its renames land on disk.)
func waitRecords(t *testing.T, n int, dirs ...string) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for {
		keys := map[string]bool{}
		for _, dir := range dirs {
			for k := range storeBytes(t, dir) {
				keys[k] = true
			}
		}
		if len(keys) >= n {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("stores hold %d records, want %d", len(keys), n)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// TestClusterShardedSweepMatchesSingleNode drives the full paper grid
// through a 3-worker cluster and through one single-node server, then
// compares store contents byte for byte: sharding the sweep must change
// where cells run, never what they produce. Also pins the sharding itself
// (every worker simulated something, the coordinator nothing) and the
// cluster-wide dedupe (cells simulated exactly once).
func TestClusterShardedSweepMatchesSingleNode(t *testing.T) {
	if testing.Short() {
		t.Skip("full-grid sweep in -short mode")
	}
	specs := paperGrid()

	// Reference arm: one node, one store.
	singleDir := t.TempDir()
	single := New(Config{Workers: 2, QueueDepth: 64, Store: store.Open(singleDir), FlushInterval: 5 * time.Millisecond})
	singleTS := newLocalServer(t, single)
	submitAll(t, singleTS, specs)
	if err := single.Drain(30 * time.Second); err != nil {
		t.Fatalf("single-node drain: %v", err)
	}
	want := storeBytes(t, singleDir)
	if len(want) != len(specs) {
		t.Fatalf("single-node store holds %d records, want %d", len(want), len(specs))
	}

	// Cluster arm: per-worker stores, coordinator routing. Hedging is off:
	// a hedged forward may run a cell twice, which the design allows but
	// the exactly-once count below forbids, and on a loaded host a slow
	// owner can cross the default hedge delay.
	dirs := []string{t.TempDir(), t.TempDir(), t.TempDir()}
	tc := newTestCluster(t, 3, clusterOpts{
		workerDirs: dirs,
		coordCfg:   func(cfg *Config) { cfg.HedgeDelay = time.Hour },
	})
	waitProbed(t, tc.coord.s)
	submitAll(t, tc.coord.url, specs)
	waitRecords(t, len(specs), dirs...)

	if got, wantN := tc.simulatedTotal(), len(specs); got != wantN {
		t.Errorf("cluster simulated %d cells, want exactly %d (each cell once)", got, wantN)
	}
	if n := tc.coord.s.pool.runner.Simulated(); n != 0 {
		t.Errorf("coordinator simulated %d cells; a coordinator must only route", n)
	}

	// Union of the worker stores == the single-node store, byte for byte.
	got := map[string][]byte{}
	perWorker := make([]int, len(dirs))
	for i, dir := range dirs {
		for k, b := range storeBytes(t, dir) {
			if prev, ok := got[k]; ok && string(prev) != string(b) {
				t.Errorf("workers disagree on record %s", k)
			}
			got[k] = b
			perWorker[i]++
		}
	}
	if len(got) != len(want) {
		t.Fatalf("cluster produced %d distinct records, single node %d", len(got), len(want))
	}
	for k, b := range want {
		cb, ok := got[k]
		if !ok {
			t.Errorf("cluster store is missing record %s", k)
			continue
		}
		if string(cb) != string(b) {
			t.Errorf("record %s differs between cluster and single node", k)
		}
	}
	for i, n := range perWorker {
		if n == 0 {
			t.Errorf("worker %d simulated nothing; rendezvous sharding is not spreading the grid", i)
		}
	}
}

// newLocalServer is httptest.NewServer without the import cycle drama: a
// plain loopback http.Server wired to s, closed via t.Cleanup.
func newLocalServer(t *testing.T, s *Server) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	srv := &http.Server{Handler: s}
	go srv.Serve(ln)
	t.Cleanup(func() { srv.Close() })
	return "http://" + ln.Addr().String()
}

// TestClusterKillWorkerResume kills one worker mid-sweep and re-drives the
// whole grid: the survivors absorb the dead worker's cells, completed work
// resumes from the shared store, and getm_serve_simulated_total across the
// fabric stays at one execution per cell.
func TestClusterKillWorkerResume(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-wave sweep in -short mode")
	}
	shared := t.TempDir()
	// Hedging is off: a hedged duplicate is a second execution of one cell,
	// which the design allows but this exact count must not see. On a loaded
	// host a slow owner can cross the default hedge delay.
	tc := newTestCluster(t, 3, clusterOpts{
		sharedDir: shared,
		coordCfg:  func(cfg *Config) { cfg.HedgeDelay = time.Hour },
	})
	waitProbed(t, tc.coord.s)
	specs := paperGrid()

	// Wave 1: half the grid completes and flushes durably.
	wave1 := specs[:len(specs)/2]
	submitAll(t, tc.coord.url, wave1)
	waitRecords(t, len(wave1), shared)
	sim1 := tc.simulatedTotal()
	if sim1 != len(wave1) {
		t.Fatalf("wave 1 simulated %d, want %d", sim1, len(wave1))
	}

	// Kill a worker that actually executed part of wave 1.
	victim := -1
	for i, w := range tc.workers {
		if w.s.pool.runner.Simulated() > 0 {
			victim = i
			break
		}
	}
	if victim < 0 {
		t.Fatal("no worker simulated anything in wave 1")
	}
	tc.workers[victim].kill()

	// Wave 2: the full grid. The victim's completed cells must resolve from
	// the shared store on whichever survivor inherits them; only the cells
	// nobody ran yet may simulate.
	submitAll(t, tc.coord.url, specs)
	waitRecords(t, len(specs), shared)
	if got := tc.simulatedTotal(); got != len(specs) {
		t.Errorf("after kill+resume the fabric simulated %d cell-executions for %d cells — %s",
			got, len(specs),
			map[bool]string{true: "cells were re-simulated", false: "cells were lost"}[got > len(specs)])
	}
	if n := tc.workers[victim].s.pool.runner.Simulated(); n == 0 {
		t.Error("victim simulated nothing before the kill; the test lost its point")
	}

	// Every cell of the grid is durably in the shared store.
	if got := len(storeBytes(t, shared)); got != len(specs) {
		t.Errorf("shared store holds %d records, want %d", got, len(specs))
	}
}

// specOwnedBy finds a spec whose rendezvous owner (per the coordinator's
// ranking) is the peer at targetURL, by scanning seeds.
func specOwnedBy(t *testing.T, coord *Server, targetURL string) (string, string) {
	t.Helper()
	for seed := 1; seed < 4096; seed++ {
		sp := RunSpec{Protocol: "getm", Benchmark: "ht-h", Scale: 0.1, Seed: uint64(seed)}
		sp.normalize()
		if err := sp.validate(1.0); err != nil {
			t.Fatal(err)
		}
		id := coord.runIDFor(&sp)
		if coord.cluster.rank(baseID(id))[0].url == targetURL {
			return fmt.Sprintf(`{"protocol":"getm","benchmark":"ht-h","scale":0.1,"seed":%d}`, seed), id
		}
	}
	t.Fatal("no seed hashed onto the target worker")
	return "", ""
}

// TestClusterHedgedRetry pins the hedge path: the rendezvous owner sits on
// a run past the hedge delay, the coordinator launches a second request
// against the next-ranked peer, the fast peer's response wins, and the slow
// (losing) request's context is canceled. The slow owner is a stub HTTP
// server rather than a real node so the loser's request-context cancellation
// is directly observable.
func TestClusterHedgedRetry(t *testing.T) {
	var fastExecs atomic.Int64
	slowCanceled := make(chan struct{}, 4)
	stall := make(chan struct{})
	defer close(stall)
	slow := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		switch {
		case r.URL.Path == "/readyz":
			w.Header().Set(headerHeadroom, "8")
			io.WriteString(w, "ready\n")
		case r.URL.Path == "/v1/runs" && r.Method == http.MethodPost:
			// Drain the body so the server's background read is armed and a
			// client disconnect cancels r.Context() (as a real node, which
			// decodes the spec immediately, would observe it).
			io.Copy(io.Discard, r.Body)
			select {
			case <-stall:
				http.Error(w, "released", http.StatusInternalServerError)
			case <-r.Context().Done():
				slowCanceled <- struct{}{}
			}
		default:
			http.NotFound(w, r)
		}
	}))
	defer slow.Close()

	fastLn, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	fast := New(Config{Workers: 2, QueueDepth: 16})
	fast.execute = instantStub(&fastExecs)
	fastSrv := &http.Server{Handler: fast}
	go fastSrv.Serve(fastLn)
	defer func() {
		fastSrv.Close()
		fast.Drain(5 * time.Second)
	}()
	fastURL := "http://" + fastLn.Addr().String()

	coord := New(Config{
		Role:          RoleCoordinator,
		Peers:         []string{slow.URL, fastURL},
		Workers:       2,
		QueueDepth:    16,
		HedgeDelay:    15 * time.Millisecond,
		ProbeInterval: 25 * time.Millisecond,
	})
	coordURL := newLocalServer(t, coord)
	defer coord.Drain(5 * time.Second)
	waitProbed(t, coord) // otherwise an unprobed owner would be stolen from, not hedged
	spec, id := specOwnedBy(t, coord, slow.URL)

	start := time.Now()
	resp := postRun(t, coordURL, spec)
	got := decodeRun(t, resp)
	if resp.StatusCode != http.StatusOK || got.Status != "done" {
		t.Fatalf("hedged run: status %d / %q (%s)", resp.StatusCode, got.Status, got.Error)
	}
	if got.ID != id {
		t.Fatalf("hedged run answered id %s, want %s", got.ID, id)
	}
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Fatalf("hedged run took %s; the hedge did not rescue it", elapsed)
	}
	if fastExecs.Load() == 0 {
		t.Fatal("the hedge target never executed; response came from nowhere")
	}
	if n := coord.met.hedges.Load(); n < 1 {
		t.Fatalf("hedges counter = %d, want >= 1", n)
	}
	var hedgedPeer *peer
	for _, p := range coord.cluster.peers {
		if p.url == fastURL {
			hedgedPeer = p
		}
	}
	if n := hedgedPeer.hedged.Load(); n < 1 {
		t.Fatalf("per-peer hedged counter = %d, want >= 1", n)
	}

	// Loser canceled: the slow owner's in-flight request must observe its
	// context dying once the winning response is relayed.
	select {
	case <-slowCanceled:
	case <-time.After(5 * time.Second):
		t.Fatal("losing (slow) request was never canceled")
	}
}

// TestClusterDeadPeerFailover pins the transport-failure path: the owner is
// gone entirely, the forward fails fast, and the submission completes on
// the next-ranked peer without waiting out the hedge delay machinery.
func TestClusterDeadPeerFailover(t *testing.T) {
	var execs0, execs1 atomic.Int64
	tc := newTestCluster(t, 2, clusterOpts{
		coordCfg: func(cfg *Config) { cfg.HedgeDelay = time.Hour }, // hedging must not be what saves this
	})
	tc.workers[0].s.execute = instantStub(&execs0)
	tc.workers[1].s.execute = instantStub(&execs1)
	spec, _ := specOwnedBy(t, tc.coord.s, tc.coord.s.cluster.peers[0].url)
	tc.workers[0].kill()

	resp := postRun(t, tc.coord.url, spec)
	got := decodeRun(t, resp)
	if resp.StatusCode != http.StatusOK || got.Status != "done" {
		t.Fatalf("failover run: status %d / %q (%s)", resp.StatusCode, got.Status, got.Error)
	}
	if execs1.Load() == 0 {
		t.Fatal("surviving peer never executed the failed-over run")
	}
	p0 := tc.coord.s.cluster.peers[0]
	if p0.failed.Load() == 0 {
		t.Error("dead peer's failure counter never moved")
	}
	if p0.healthy.Load() {
		t.Error("dead peer still marked healthy after a transport failure")
	}
}

// TestClusterWorkStealing saturates the owner's queue and checks the
// planner routes around it: the next-ranked peer absorbs the run and its
// stolen counter records the steal.
func TestClusterWorkStealing(t *testing.T) {
	var fastExecs atomic.Int64
	block := make(chan struct{})
	var blockedExecs atomic.Int64
	tc := newTestCluster(t, 2, clusterOpts{
		workerCfg: func(i int, cfg *Config) {
			cfg.Workers = 1
			cfg.QueueDepth = 2
		},
	})
	tc.workers[0].s.execute = blockingStub(&blockedExecs, block)
	tc.workers[1].s.execute = instantStub(&fastExecs)
	defer close(block)
	waitProbed(t, tc.coord.s)

	// Saturate worker 0: one run occupies its single worker, two more fill
	// the queue — zero headroom.
	for seed := 1; seed <= 3; seed++ {
		resp := postRun(t, tc.workers[0].url,
			fmt.Sprintf(`{"protocol":"getm","benchmark":"ht-m","scale":0.1,"seed":%d,"async":true}`, seed+100000))
		resp.Body.Close()
		if seed == 1 {
			waitInflight(t, tc.workers[0].s, 1)
		}
	}
	deadline := time.Now().Add(5 * time.Second)
	for tc.workers[0].s.pool.fq.len() < 2 {
		if time.Now().After(deadline) {
			t.Fatalf("worker 0 queue never filled (len %d)", tc.workers[0].s.pool.fq.len())
		}
		time.Sleep(time.Millisecond)
	}
	// Wait for the coordinator's prober to observe the saturation (headroom
	// started positive after waitProbed, so the drop is a real observation).
	failedBefore := tc.coord.s.cluster.peers[0].failed.Load()
	for tc.coord.s.cluster.peers[0].headroom.Load() > 0 {
		if time.Now().After(deadline) {
			t.Fatalf("prober never observed saturation (headroom %d)", tc.coord.s.cluster.peers[0].headroom.Load())
		}
		time.Sleep(5 * time.Millisecond)
	}
	if n := tc.coord.s.cluster.peers[0].failed.Load(); n != failedBefore {
		t.Fatalf("probing a saturated peer recorded %d transport failures; saturation must not read as death", n-failedBefore)
	}

	spec, _ := specOwnedBy(t, tc.coord.s, tc.coord.s.cluster.peers[0].url)
	resp := postRun(t, tc.coord.url, spec)
	got := decodeRun(t, resp)
	if resp.StatusCode != http.StatusOK || got.Status != "done" {
		t.Fatalf("stolen run: status %d / %q (%s)", resp.StatusCode, got.Status, got.Error)
	}
	if fastExecs.Load() == 0 {
		t.Fatal("the unsaturated peer never executed the stolen run")
	}
	if n := tc.coord.s.cluster.peers[1].stolen.Load(); n < 1 {
		t.Fatalf("per-peer stolen counter = %d, want >= 1", n)
	}
}

// TestClusterStoreSync pins the store-sync path end to end: a cell executes
// on its owner, and a status read against the coordinator — whose local
// store has never seen the cell — resolves by fetching the raw record from
// the peer, verifying it, and writing it through.
func TestClusterStoreSync(t *testing.T) {
	workerDirs := []string{t.TempDir(), t.TempDir()}
	tc := newTestCluster(t, 2, clusterOpts{workerDirs: workerDirs})
	specs := []string{`{"protocol":"getm","benchmark":"ht-l","scale":0.02}`}
	got := submitAll(t, tc.coord.url, specs)
	waitRecords(t, 1, workerDirs...)
	id := got[0].ID

	code, body := getBody(t, tc.coord.url+"/v1/runs/"+id)
	if code != http.StatusOK {
		t.Fatalf("coordinator status read: %d: %s", code, body)
	}
	var r Response
	if err := json.Unmarshal([]byte(body), &r); err != nil {
		t.Fatal(err)
	}
	if r.Status != "done" || r.Metrics == nil {
		t.Fatalf("coordinator status read: %+v", r)
	}
	if tc.coord.s.met.storeFills.Load() < 1 {
		t.Error("coordinator answered without a peer fill; expected a store-sync fetch")
	}
	// Write-through: the record is now in the coordinator's own store.
	if _, ok := tc.coord.s.cfg.Store.ReadRaw(baseID(id)); !ok {
		t.Error("peer fill was not written through to the coordinator's store")
	}
	// The non-owner worker can answer too (fills from its peer).
	for _, w := range tc.workers {
		code, _ := getBody(t, w.url+"/v1/runs/"+id)
		if code != http.StatusOK {
			t.Errorf("worker %s cannot answer for the cell: %d", w.url, code)
		}
	}
}

// TestClusterPeerMetricsLint drives a little traffic and lints the
// coordinator's per-peer metric families: HELP/TYPE present, every sample
// labeled with its peer, counters consistent with the traffic.
func TestClusterPeerMetricsLint(t *testing.T) {
	var e0, e1 atomic.Int64
	tc := newTestCluster(t, 2, clusterOpts{})
	tc.workers[0].s.execute = instantStub(&e0)
	tc.workers[1].s.execute = instantStub(&e1)
	for seed := 1; seed <= 8; seed++ {
		resp := postRun(t, tc.coord.url,
			fmt.Sprintf(`{"protocol":"getm","benchmark":"ht-h","scale":0.1,"seed":%d}`, seed))
		resp.Body.Close()
	}
	code, body := getBody(t, tc.coord.url+"/metrics")
	if code != http.StatusOK {
		t.Fatalf("metrics scrape: %d", code)
	}
	families := []string{
		"getm_serve_peer_healthy",
		"getm_serve_peer_headroom",
		"getm_serve_peer_forwarded_total",
		"getm_serve_peer_stolen_total",
		"getm_serve_peer_hedged_total",
		"getm_serve_peer_failed_total",
		"getm_serve_peer_fills_total",
		"getm_serve_cluster_peers",
		"getm_serve_hedges_total",
		"getm_serve_store_peer_fills_total",
	}
	for _, f := range families {
		if !strings.Contains(body, "# HELP "+f+" ") {
			t.Errorf("family %s missing HELP", f)
		}
		if !strings.Contains(body, "# TYPE "+f+" ") {
			t.Errorf("family %s missing TYPE", f)
		}
	}
	// Every per-peer family exposes one labeled sample per configured peer.
	for _, p := range tc.coord.s.cluster.peers {
		for _, f := range families[:7] {
			if !strings.Contains(body, f+`{peer="`+p.name+`"}`) {
				t.Errorf("family %s missing sample for peer %s", f, p.name)
			}
		}
	}
	var forwarded int64
	for _, p := range tc.coord.s.cluster.peers {
		forwarded += p.forwarded.Load()
	}
	if forwarded < 8 {
		t.Errorf("forwarded across peers = %d, want >= 8 (one per submission)", forwarded)
	}
	if e0.Load()+e1.Load() == 0 {
		t.Error("no worker executed anything; the lint ran against idle counters")
	}
}

// TestClusterBatchSharding drives one batch through the coordinator: the
// specs shard across workers by rendezvous, invalid entries answer in
// place, and the response array preserves submission order.
func TestClusterBatchSharding(t *testing.T) {
	var e0, e1 atomic.Int64
	tc := newTestCluster(t, 2, clusterOpts{})
	tc.workers[0].s.execute = instantStub(&e0)
	tc.workers[1].s.execute = instantStub(&e1)
	waitProbed(t, tc.coord.s)

	var entries []string
	for seed := 1; seed <= 12; seed++ {
		entries = append(entries, fmt.Sprintf(`{"protocol":"getm","benchmark":"ht-h","scale":0.1,"seed":%d}`, seed))
	}
	entries = append(entries, `{"protocol":"nope","benchmark":"ht-h"}`) // invalid, answered locally
	batch := "[" + strings.Join(entries, ",") + "]"
	resp, err := http.Post(tc.coord.url+"/v1/runs/batch", "application/json", strings.NewReader(batch))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("batch: status %d", resp.StatusCode)
	}
	var out []Response
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatal(err)
	}
	if len(out) != len(entries) {
		t.Fatalf("batch returned %d entries, want %d", len(out), len(entries))
	}
	for i := 0; i < 12; i++ {
		if out[i].Status != "done" {
			t.Errorf("batch entry %d: status %q (%s)", i, out[i].Status, out[i].Error)
		}
	}
	if out[12].Status != "invalid" {
		t.Errorf("invalid entry answered %q, want invalid", out[12].Status)
	}
	if e0.Load() == 0 || e1.Load() == 0 {
		t.Errorf("batch did not shard: worker execs %d/%d", e0.Load(), e1.Load())
	}
}

// TestClusterDrainAcceptRaceCoordinator is the coordinator-role arm of the
// drain/accept race: submissions racing the coordinator's drain either
// complete (having been forwarded and executed) or get a clean 503 — never
// an acceptance the drain then drops on the floor.
func TestClusterDrainAcceptRaceCoordinator(t *testing.T) {
	var execs atomic.Int64
	tc := newTestCluster(t, 1, clusterOpts{})
	tc.workers[0].s.execute = instantStub(&execs)

	stop := make(chan struct{})
	wg := drainFlood(t, tc.coord.url, stop)
	time.Sleep(20 * time.Millisecond)
	if err := tc.coord.s.Drain(10 * time.Second); err != nil {
		t.Errorf("coordinator drain under flood: %v", err)
	}
	close(stop)
	wg.Wait()
	if execs.Load() == 0 {
		t.Fatal("flood never reached the worker; the race was not exercised")
	}
	// The worker must hold no stuck jobs either.
	tc.workers[0].s.pool.jobs.Range(func(_, v any) bool {
		js := v.(*jobState)
		select {
		case <-js.done:
		default:
			t.Errorf("worker run %s accepted but never finished", js.id)
		}
		return true
	})
}

// TestClusterRendezvousDeterminism pins the routing function itself: stable
// across calls and instances, key-dependent, and minimally disruptive (a
// removed peer reassigns only its own cells).
func TestClusterRendezvousDeterminism(t *testing.T) {
	s := &Server{cfg: Config{Peers: []string{"http://a:1", "http://b:2", "http://c:3"}}.withDefaults()}
	c := newCluster(s)
	defer c.close()
	s2 := &Server{cfg: Config{Peers: []string{"http://c:3", "http://a:1", "http://b:2"}}.withDefaults()}
	c2 := newCluster(s2)
	defer c2.close()

	keys := make([]string, 64)
	for i := range keys {
		keys[i] = fmt.Sprintf("%064x", i*2654435761)
	}
	owners := map[string]int{}
	for _, k := range keys {
		r1 := c.rank(k)
		if got := c.rank(k); got[0] != r1[0] || got[1] != r1[1] {
			t.Fatal("rank is not deterministic across calls")
		}
		// Peer-list order must not matter: both instances agree on the owner.
		if c2.rank(k)[0].url != r1[0].url {
			t.Fatalf("rank depends on peer declaration order for key %s", k)
		}
		owners[r1[0].url]++
	}
	if len(owners) != 3 {
		t.Fatalf("64 keys landed on %d of 3 peers: %v", len(owners), owners)
	}
	// Simulate peer b dying: keys owned by a or c must keep their owner.
	for _, k := range keys {
		full := c.rank(k)
		var survivors []*peer
		for _, p := range full {
			if p.url != "http://b:2" {
				survivors = append(survivors, p)
			}
		}
		if full[0].url != "http://b:2" && survivors[0] != full[0] {
			t.Fatalf("losing peer b reassigned key %s away from its live owner", k)
		}
	}
}

// TestClusterConfigValidate pins the config surface.
func TestClusterConfigValidate(t *testing.T) {
	cases := []struct {
		cfg Config
		ok  bool
	}{
		{Config{}, true},
		{Config{Role: RoleWorker}, true},
		{Config{Role: RoleWorker, Peers: []string{"http://h:1"}}, true},
		{Config{Role: RoleCoordinator, Peers: []string{"http://h:1"}}, true},
		{Config{Role: "boss"}, false},
		{Config{Role: RoleCoordinator}, false}, // nobody to route to
		{Config{Role: RoleCoordinator, Peers: []string{"h:1"}}, false},
		{Config{Peers: []string{"ftp://h:1"}}, false},
		{Config{Peers: []string{"http://"}}, false},
	}
	for i, c := range cases {
		err := c.cfg.Validate()
		if (err == nil) != c.ok {
			t.Errorf("case %d (%+v): err=%v, want ok=%v", i, c.cfg, err, c.ok)
		}
	}
}
