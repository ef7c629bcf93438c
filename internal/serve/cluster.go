// Cluster mode: N getm-serve processes act as one sweep fabric. A
// coordinator owns no simulations — it routes every validated submission to
// a worker chosen by rendezvous hashing of the run's store key, so a given
// cell always lands on the same worker and the worker-side dedupe tiers
// (fast join, job table, runner singleflight) keep collapsing repeat
// traffic exactly as they do single-node. Three mechanisms keep the fabric
// live under skew and failure:
//
//   - Work-stealing: each peer's /readyz reply carries its live queue
//     headroom (X-Getm-Headroom). When the rendezvous owner reports no
//     headroom, the submission is routed to the next-ranked peer with room
//     instead of bouncing off the owner's 429.
//   - Hedged retries: a forwarded run that has not answered after a
//     p99-derived delay is retried against the next-ranked peer; the first
//     response wins and the loser's request context is canceled.
//     Simulations are deterministic and results content-addressed, so a
//     duplicated execution is wasted work at worst, never wrong data.
//   - Store sync: every node serves its raw record files on
//     GET /v1/store/{key}, and every node's store, on a local miss, fetches
//     from its peers and writes the verified record through. Any node
//     answers GET /v1/runs/{id}; a worker inheriting a dead peer's cells
//     re-simulates only what no surviving store holds.

package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"hash/fnv"
	"io"
	"net/http"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"getm/internal/stats"
)

// Cluster wire headers.
const (
	// headerForwarded marks a request already routed by a coordinator; a
	// node receiving it always executes locally, so a misconfigured peer
	// ring cannot loop a request forever.
	headerForwarded = "X-Getm-Forwarded"
	// headerHeadroom carries a node's live queue headroom on /readyz.
	headerHeadroom = "X-Getm-Headroom"
)

// peer is one remote node's tracked state: liveness and headroom from the
// health prober, plus the per-peer counters behind the /metrics peers table.
type peer struct {
	url  string // base URL, no trailing slash
	name string // bounded metrics label: URL minus scheme

	healthy  atomic.Bool
	headroom atomic.Int64

	forwarded atomic.Int64 // submissions routed here
	stolen    atomic.Int64 // submissions absorbed here because the owner was saturated
	hedged    atomic.Int64 // hedge requests sent here
	failed    atomic.Int64 // transport failures talking to this peer
	fills     atomic.Int64 // store records fetched from here
}

// cluster is the peer-facing half of a Server: the peer table, the health
// prober, the forwarding client, and the latency tracker the hedge delay
// derives from.
type cluster struct {
	s     *Server
	peers []*peer
	hc    *http.Client

	mu     sync.Mutex
	fwdLat stats.LogHist // forward round-trip latency, µs

	quit chan struct{}
	wg   sync.WaitGroup
}

func newCluster(s *Server) *cluster {
	c := &cluster{
		s: s,
		// Transport defaults suffice: forwards are bounded per-request by
		// context, probes by their own short deadline.
		hc:   &http.Client{},
		quit: make(chan struct{}),
	}
	for _, raw := range s.cfg.Peers {
		u := strings.TrimRight(raw, "/")
		p := &peer{url: u, name: trimScheme(u)}
		p.healthy.Store(true) // optimistic until the first probe or failure
		c.peers = append(c.peers, p)
	}
	c.wg.Add(1)
	go c.probeLoop()
	return c
}

func trimScheme(u string) string {
	if i := strings.Index(u, "://"); i >= 0 {
		return u[i+3:]
	}
	return u
}

// close stops the prober. In-flight forwards finish under their own request
// contexts.
func (c *cluster) close() {
	select {
	case <-c.quit:
	default:
		close(c.quit)
	}
	c.wg.Wait()
}

// routesRemotely reports whether this request should be forwarded to a peer
// rather than executed locally: the node is a coordinator with a cluster,
// and the request did not already come from one (the forwarded marker is the
// loop breaker — a forwarded request always executes where it lands).
func (s *Server) routesRemotely(r *http.Request) bool {
	return s.cluster != nil && s.cfg.Role == RoleCoordinator && r.Header.Get(headerForwarded) == ""
}

// rank orders every peer by rendezvous (highest-random-weight) hash of the
// store key: each peer scores fnv64a(key|url) and the key's owner is the top
// score. Any two nodes agree on the order without coordination, and removing
// a peer only reassigns that peer's cells.
func (c *cluster) rank(key string) []*peer {
	type scored struct {
		p     *peer
		score uint64
	}
	rs := make([]scored, len(c.peers))
	for i, p := range c.peers {
		h := fnv.New64a()
		io.WriteString(h, key)
		io.WriteString(h, "|")
		io.WriteString(h, p.url)
		rs[i] = scored{p, h.Sum64()}
	}
	sort.Slice(rs, func(i, j int) bool {
		if rs[i].score != rs[j].score {
			return rs[i].score > rs[j].score
		}
		return rs[i].p.url < rs[j].p.url
	})
	out := make([]*peer, len(rs))
	for i, r := range rs {
		out[i] = r.p
	}
	return out
}

// plan builds the forward order for one store key: healthy peers in
// rendezvous rank, with a saturated owner demoted behind peers that still
// have headroom (work-stealing — the steal is attributed to the peer that
// absorbs the work). An empty plan means no healthy peer exists.
func (c *cluster) plan(key string) (targets []*peer, stole bool) {
	for _, p := range c.rank(key) {
		if p.healthy.Load() {
			targets = append(targets, p)
		}
	}
	if len(targets) < 2 || targets[0].headroom.Load() > 0 {
		return targets, false
	}
	for i := 1; i < len(targets); i++ {
		if targets[i].headroom.Load() > 0 {
			owner := targets[0]
			copy(targets, targets[1:i+1])
			targets[i] = owner
			return targets, true
		}
	}
	return targets, false
}

// fwdResult is one peer's answer (or transport failure).
type fwdResult struct {
	peer   *peer
	status int
	header http.Header
	body   []byte
	err    error
}

// send issues one forwarded request and reads the full response. Transport
// failures mark the peer unhealthy immediately (the prober restores it);
// any HTTP response — success or shed — counts as the peer answering.
func (c *cluster) send(ctx context.Context, p *peer, method, path string, body []byte, client string) fwdResult {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequestWithContext(ctx, method, p.url+path, rd)
	if err != nil {
		return fwdResult{peer: p, err: err}
	}
	req.Header.Set(headerForwarded, "1")
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	if client != "" {
		// Preserve the end client's identity so worker-side quotas, fair
		// queueing, and per-client metrics see the tenant, not the
		// coordinator.
		req.Header.Set(c.s.cfg.ClientHeader, client)
	}
	t0 := time.Now()
	resp, err := c.hc.Do(req)
	if err != nil {
		p.failed.Add(1)
		p.healthy.Store(false)
		return fwdResult{peer: p, err: err}
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		p.failed.Add(1)
		return fwdResult{peer: p, err: err}
	}
	c.mu.Lock()
	c.fwdLat.Add(time.Since(t0).Microseconds())
	c.mu.Unlock()
	return fwdResult{peer: p, status: resp.StatusCode, header: resp.Header, body: b}
}

// hedgeDelay is how long a forwarded run may stay unanswered before a hedge
// launches: the configured fixed delay, else 1.5× the observed forward p99,
// clamped to [5ms, 2s], with a 50ms floor until enough samples exist.
func (c *cluster) hedgeDelay() time.Duration {
	if d := c.s.cfg.HedgeDelay; d > 0 {
		return d
	}
	c.mu.Lock()
	n := c.fwdLat.Total()
	p99 := c.fwdLat.Quantile(0.99)
	c.mu.Unlock()
	if n < 16 || p99 <= 0 {
		return 50 * time.Millisecond
	}
	d := time.Duration(p99*1.5) * time.Microsecond
	return min(max(d, 5*time.Millisecond), 2*time.Second)
}

// forwardTimeout bounds one forwarded submission: the run's own wall-clock
// deadline plus transport slack.
func (c *cluster) forwardTimeout(sp *RunSpec) time.Duration {
	t := c.s.cfg.RequestTimeout
	if d := time.Duration(sp.TimeoutMS) * time.Millisecond; d > 0 && d < t {
		t = d
	}
	return t + 10*time.Second
}

// forwardRun routes one validated submission: rendezvous owner first
// (saturation-stolen if needed), a hedge to the next-ranked peer when the
// owner is slow, immediate failover on transport errors, first response
// relayed, losers canceled.
func (c *cluster) forwardRun(w http.ResponseWriter, r *http.Request, sp RunSpec, client string, start time.Time) {
	s := c.s
	if s.pool.draining.Load() {
		s.shed(client, 1)
		s.refuse(w, admitDraining, 0, nil)
		return
	}
	id := s.runIDFor(&sp)
	targets, stole := c.plan(baseID(id))
	if len(targets) == 0 {
		s.shed(client, 1)
		w.Header().Set("Retry-After", "1")
		writeError(w, http.StatusServiceUnavailable, errors.New("no healthy workers"))
		return
	}
	body, err := json.Marshal(sp)
	if err != nil {
		writeError(w, http.StatusInternalServerError, fmt.Errorf("encode spec: %w", err))
		return
	}

	ctx, cancel := context.WithTimeout(r.Context(), c.forwardTimeout(&sp))
	defer cancel()
	results := make(chan fwdResult, len(targets))
	cancels := make([]context.CancelFunc, 0, len(targets))
	defer func() {
		for _, cf := range cancels {
			cf()
		}
	}()
	launch := func(p *peer, hedge bool) {
		p.forwarded.Add(1)
		if hedge {
			p.hedged.Add(1)
			s.met.hedges.Add(1)
		}
		actx, acancel := context.WithCancel(ctx)
		cancels = append(cancels, acancel)
		go func() {
			results <- c.send(actx, p, "POST", "/v1/runs", body, client)
		}()
	}

	next := 0 // index into targets of the next peer to try
	launch(targets[next], false)
	if stole {
		targets[0].stolen.Add(1)
	}
	next++
	pending := 1
	hedgeTimer := time.NewTimer(c.hedgeDelay())
	defer hedgeTimer.Stop()
	for {
		select {
		case res := <-results:
			pending--
			if res.err == nil {
				// First answer wins — relay it; the deferred cancels reel in
				// any hedge still in flight.
				relayResponse(w, res)
				s.span(stageRespond, client, id, uint64(time.Since(start).Microseconds()), 0)
				return
			}
			// Transport failure: fail over to the next target immediately.
			if next < len(targets) {
				launch(targets[next], false)
				next++
				pending++
			} else if pending == 0 {
				s.shed(client, 1)
				w.Header().Set("Retry-After", "1")
				writeError(w, http.StatusBadGateway, fmt.Errorf("all workers unreachable: %v", res.err))
				return
			}
		case <-hedgeTimer.C:
			// The owner is slow; hedge once against the next-ranked peer.
			if next < len(targets) {
				launch(targets[next], true)
				next++
				pending++
			}
		case <-ctx.Done():
			return // client gone or deadline passed; nothing useful to write
		}
	}
}

// relayResponse writes a peer's answer through to the submitting client,
// preserving the headers the serving API documents.
func relayResponse(w http.ResponseWriter, res fwdResult) {
	for _, h := range []string{"Content-Type", "Retry-After", "X-Getm-Timings", "X-Getm-Shed"} {
		if v := res.header.Get(h); v != "" {
			w.Header().Set(h, v)
		}
	}
	w.WriteHeader(res.status)
	w.Write(res.body)
}

// forwardBatch shards one batch submission: each spec is validated and
// quota-checked locally, valid specs are grouped by their planned worker,
// the sub-batches forward concurrently, and the responses reassemble in
// submission order. Sub-batches fail over peer by peer on transport errors
// (no hedging: a batch's loss profile is dominated by sharding, and the
// per-run path covers tail latency); specs no healthy peer could take are
// shed. The X-Getm-Shed header sums local sheds and every sub-batch's.
func (c *cluster) forwardBatch(w http.ResponseWriter, r *http.Request, specs []RunSpec, client string, start time.Time) {
	s := c.s
	resps := make([][]byte, len(specs))
	shed := 0
	groups := make(map[*peer][]int) // planned primary -> spec indices
	plans := make(map[*peer][]*peer)
	for i := range specs {
		sp := &specs[i]
		if o, _, err := s.screen(sp, client); o != admitOK {
			resps[i] = refusedEntry(o, err)
			if o != admitInvalid {
				shed++
			}
			continue
		}
		id := s.runIDFor(sp)
		targets, stolen := c.plan(baseID(id))
		if len(targets) == 0 {
			s.shed(client, 1)
			resps[i] = marshalResponse(&Response{Status: "shed", Error: "no healthy workers"})
			shed++
			continue
		}
		if stolen {
			targets[0].stolen.Add(1)
		}
		groups[targets[0]] = append(groups[targets[0]], i)
		plans[targets[0]] = targets
	}

	// Forward every group concurrently; within a group, fail over through
	// the plan on transport errors.
	var (
		wg      sync.WaitGroup
		respMu  sync.Mutex
		fwdShed int
	)
	for p, idxs := range groups {
		wg.Add(1)
		go func(targets []*peer, idxs []int) {
			defer wg.Done()
			sub := make([]RunSpec, len(idxs))
			timeout := time.Duration(0)
			for j, i := range idxs {
				sub[j] = specs[i]
				timeout = max(timeout, c.forwardTimeout(&specs[i]))
			}
			body, err := json.Marshal(sub)
			entries, subShed := c.sendSubBatch(r, targets, body, client, timeout, len(idxs), err)
			respMu.Lock()
			defer respMu.Unlock()
			fwdShed += subShed
			for j, i := range idxs {
				resps[i] = entries[j]
			}
		}(plans[p], idxs)
	}
	wg.Wait()
	writeBatch(w, shed+fwdShed, resps)
	s.span(stageRespond, client, "", uint64(time.Since(start).Microseconds()), uint64(len(specs)))
}

// sendSubBatch forwards one peer group's sub-batch, failing over through
// targets. It returns one rendered entry per spec and the shed count:
// entries shed remotely (parsed from X-Getm-Shed) or locally when every
// target failed.
func (c *cluster) sendSubBatch(r *http.Request, targets []*peer, body []byte, client string, timeout time.Duration, n int, encErr error) ([][]byte, int) {
	shedAll := func(msg string) ([][]byte, int) {
		entry := marshalResponse(&Response{Status: "shed", Error: msg})
		out := make([][]byte, n)
		for i := range out {
			out[i] = entry
		}
		c.s.shed(client, int64(n))
		return out, n
	}
	if encErr != nil {
		return shedAll("encode batch: " + encErr.Error())
	}
	ctx, cancel := context.WithTimeout(r.Context(), timeout)
	defer cancel()
	for _, p := range targets {
		p.forwarded.Add(int64(n))
		res := c.send(ctx, p, "POST", "/v1/runs/batch", body, client)
		if res.err != nil {
			continue // transport failure: next target
		}
		if res.status != http.StatusOK {
			// The whole sub-batch was refused (e.g. the peer started
			// draining); relay the refusal per entry.
			return shedAll(fmt.Sprintf("worker %s refused batch: %d", p.name, res.status))
		}
		var entries []json.RawMessage
		if err := json.Unmarshal(res.body, &entries); err != nil || len(entries) != n {
			return shedAll("worker " + p.name + " returned a malformed batch response")
		}
		out := make([][]byte, n)
		for i := range entries {
			out[i] = entries[i]
		}
		subShed, _ := strconv.Atoi(res.header.Get("X-Getm-Shed"))
		return out, subShed
	}
	return shedAll("no reachable worker")
}

func marshalResponse(resp *Response) []byte {
	b, err := json.Marshal(resp)
	if err != nil {
		return []byte(`{"status":"failed","error":"encode error"}`)
	}
	return b
}

// proxyStatus resolves a status read for a run this node does not hold:
// peers are asked in rendezvous order (stealing and hedging can land a cell
// off-owner, so a 404 tries the next) and the first definite answer is
// relayed. The forwarded marker keeps the fan-out single-hop.
func (c *cluster) proxyStatus(w http.ResponseWriter, r *http.Request, id string) bool {
	ctx, cancel := context.WithTimeout(r.Context(), 5*time.Second)
	defer cancel()
	for _, p := range c.rank(baseID(id)) {
		if !p.healthy.Load() {
			continue
		}
		res := c.send(ctx, p, "GET", "/v1/runs/"+id, nil, "")
		if res.err != nil || res.status == http.StatusNotFound {
			continue
		}
		relayResponse(w, res)
		return true
	}
	return false
}

// fill is the store's peer-fetch hook: on a local miss, ask each healthy
// peer (rendezvous order, owner first) for the raw record. The store layer
// verifies the bytes and writes them through, so this returns raw wire
// bytes, trusted by no one.
func (c *cluster) fill(key string) ([]byte, bool) {
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	for _, p := range c.rank(key) {
		if !p.healthy.Load() {
			continue
		}
		res := c.send(ctx, p, "GET", "/v1/store/"+key, nil, "")
		if res.err != nil || res.status != http.StatusOK {
			continue
		}
		p.fills.Add(1)
		c.s.met.storeFills.Add(1)
		return res.body, true
	}
	return nil, false
}

// probeLoop refreshes every peer's liveness and headroom each interval: a
// transport failure or a draining peer is out of the routing plan; any
// /readyz answer (ready or saturated) restores liveness and updates the
// headroom that work-stealing keys off.
func (c *cluster) probeLoop() {
	defer c.wg.Done()
	t := time.NewTicker(c.s.cfg.ProbeInterval)
	defer t.Stop()
	c.probeOnce()
	for {
		select {
		case <-c.quit:
			return
		case <-t.C:
			c.probeOnce()
		}
	}
}

func (c *cluster) probeOnce() {
	var wg sync.WaitGroup
	for _, p := range c.peers {
		wg.Add(1)
		go func(p *peer) {
			defer wg.Done()
			ctx, cancel := context.WithTimeout(context.Background(), c.s.cfg.ProbeInterval*4)
			defer cancel()
			req, err := http.NewRequestWithContext(ctx, "GET", p.url+"/readyz", nil)
			if err != nil {
				return
			}
			resp, err := c.hc.Do(req)
			if err != nil {
				p.failed.Add(1)
				p.healthy.Store(false)
				p.headroom.Store(0)
				return
			}
			body, _ := io.ReadAll(io.LimitReader(resp.Body, 64))
			resp.Body.Close()
			if h, err := strconv.Atoi(resp.Header.Get(headerHeadroom)); err == nil {
				p.headroom.Store(int64(h))
			}
			// Draining means gone-soon: stop routing there. Saturated stays
			// healthy — it can still absorb hedges and answer status reads —
			// but with zero headroom the planner steers new work away.
			p.healthy.Store(!strings.HasPrefix(strings.TrimSpace(string(body)), "draining"))
		}(p)
	}
	wg.Wait()
}
