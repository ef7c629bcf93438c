// getm-load drives sustained simulation traffic against the getm-serve HTTP
// service and reports client-side throughput and latency — the tool that
// recorded BENCH_serve.json, and the SLO gate `make load-gate` runs on every
// check.
//
// Usage:
//
//	getm-load [-url http://host:port] [-targets URL,URL,...]
//	          [-mix dedupe-heavy|dedupe-free]
//	          [-duration 3s] [-clients 4] [-batch 16] [-keys 8] [-zipf 1.2]
//	          [-scale 0.02] [-protocol getm] [-benchmark ht-h]
//	          [-slo-p99 0] [-slo-shed -1] [-out FILE] [-spans] [-seed 1]
//
// Two traffic mixes:
//
//   - dedupe-heavy: every request draws its seed from a zipfian distribution
//     over -keys distinct values (warmed up first), so steady-state traffic
//     is repeat requests for completed cells. This is the serving fast path
//     — admission dedupe, cached rendering, write coalescing — and the mix
//     the ≥5x throughput claim is made on.
//   - dedupe-free: every request carries a globally unique seed, so every
//     request simulates. Throughput is simulation-bound by construction;
//     the mix pins down the harness overhead floor, not a speedup.
//
// Without -url, getm-load spawns a getm-serve instance in-process (fresh
// temp store).
//
// -slo-p99 and -slo-shed turn the run into a gate: exit 1 if the measured
// p99 latency exceeds the bound or the shed rate exceeds the fraction.
//
// -spans runs spawned servers with lifecycle spans on, so every timed POST
// carries an X-Getm-Timings header; results then report the server's own
// stage breakdown (queue/sim/persist p99) side by side with the
// client-observed p99, both in the summary line and in the JSON
// (server_*_ms fields). Targets named with -url report server timings
// whenever that server was started with -spans.
//
// -targets takes a comma-separated list of base URLs for cluster-aware load:
// each closed-loop client pins to targets[i mod n], so an N-node fabric
// (coordinator plus workers, or workers addressed directly) sees the load
// spread across its front doors while every client still measures one
// stable connection. Aggregate results span all targets.
//
// -out writes are atomic (temp file + rename in the destination directory),
// so a crashed or failed run never leaves a torn result file behind — the
// previous file survives intact until the new one is complete.
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"getm/internal/serve"
	"getm/internal/store"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// loadCfg is one measurement's parameters.
type loadCfg struct {
	mix       string
	duration  time.Duration
	clients   int
	batch     int
	keys      int
	zipfS     float64
	scale     float64
	protocol  string
	benchmark string
	seed      int64
}

// mixResult is one measurement, all-float64 leaves so cmd/benchdiff can walk
// the committed JSON. The server_* fields are populated from X-Getm-Timings
// response headers when the target server runs with spans enabled: the
// server's own account of each answered run's stage costs, reported side by
// side with the client-observed latency. Timings are per-run, not per-POST —
// a deduped hit reports the stage costs of the execution that produced the
// cell — so on dedupe-heavy mixes the server columns describe the runs being
// served while the client columns describe the serving itself.
type mixResult struct {
	Requests  float64 `json:"requests"`
	Posts     float64 `json:"posts"`
	OK        float64 `json:"ok"`
	Shed      float64 `json:"shed"`
	Errors    float64 `json:"errors"`
	DurationS float64 `json:"duration_s"`
	RPS       float64 `json:"rps"`
	P50MS     float64 `json:"p50_ms"`
	P99MS     float64 `json:"p99_ms"`
	MeanMS    float64 `json:"mean_ms"`
	ShedRate  float64 `json:"shed_rate"`

	TimingsN           float64 `json:"timings_n"`
	ServerP50MS        float64 `json:"server_p50_ms"`
	ServerP99MS        float64 `json:"server_p99_ms"`
	ServerQueueP99MS   float64 `json:"server_queue_p99_ms"`
	ServerSimP99MS     float64 `json:"server_sim_p99_ms"`
	ServerPersistP99MS float64 `json:"server_persist_p99_ms"`
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("getm-load", flag.ContinueOnError)
	fs.SetOutput(stderr)
	url := fs.String("url", "", "target server base URL (empty = spawn a server in-process)")
	targets := fs.String("targets", "", "comma-separated target base URLs; clients pin round-robin across them (cluster-aware load)")
	mix := fs.String("mix", "dedupe-heavy", "traffic mix: dedupe-heavy or dedupe-free")
	duration := fs.Duration("duration", 3*time.Second, "measurement length")
	clients := fs.Int("clients", 4, "concurrent closed-loop clients")
	batch := fs.Int("batch", 16, "specs per POST (1 = single-run endpoint)")
	keys := fs.Int("keys", 8, "distinct seeds in the dedupe-heavy key set")
	zipfS := fs.Float64("zipf", 1.2, "zipf skew for dedupe-heavy key choice (s > 1)")
	scale := fs.Float64("scale", 0.02, "workload scale per request")
	protocol := fs.String("protocol", "getm", "protocol under test")
	benchmark := fs.String("benchmark", "ht-h", "benchmark under test")
	sloP99 := fs.Duration("slo-p99", 0, "fail (exit 1) if p99 latency exceeds this (0 = no bound)")
	sloShed := fs.Float64("slo-shed", -1, "fail (exit 1) if shed fraction exceeds this (negative = no bound)")
	out := fs.String("out", "", "write the result JSON here (empty = stdout)")
	spans := fs.Bool("spans", false, "enable lifecycle spans on spawned servers so results carry server-reported stage timings")
	seed := fs.Int64("seed", 1, "load-generator RNG seed")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	cfg := loadCfg{
		mix: *mix, duration: *duration, clients: *clients, batch: *batch,
		keys: *keys, zipfS: *zipfS, scale: *scale,
		protocol: *protocol, benchmark: *benchmark, seed: *seed,
	}
	if err := cfg.validate(); err != nil {
		fmt.Fprintln(stderr, "error:", err)
		return 2
	}
	var targetList []string
	if *targets != "" {
		if *url != "" {
			fmt.Fprintln(stderr, "error: -targets already names the servers; drop -url")
			return 2
		}
		for _, u := range strings.Split(*targets, ",") {
			if u = strings.TrimSpace(u); u != "" {
				targetList = append(targetList, u)
			}
		}
		if len(targetList) == 0 {
			fmt.Fprintln(stderr, "error: -targets lists no URLs")
			return 2
		}
	}

	if len(targetList) == 0 && *url != "" {
		targetList = []string{*url}
	}
	var shutdown func()
	if len(targetList) == 0 {
		target, sd, err := spawnServer(*spans, stderr)
		if err != nil {
			fmt.Fprintln(stderr, "error:", err)
			return 1
		}
		targetList, shutdown = []string{target}, sd
	}
	res, err := runMix(targetList, cfg, stderr)
	if shutdown != nil {
		shutdown()
	}
	if err != nil {
		fmt.Fprintln(stderr, "error:", err)
		return 1
	}

	b, err := json.MarshalIndent(res, "", "  ")
	if err != nil {
		fmt.Fprintln(stderr, "error:", err)
		return 1
	}
	b = append(b, '\n')
	if *out != "" {
		if err := writeFileAtomic(*out, b); err != nil {
			fmt.Fprintln(stderr, "error:", err)
			return 1
		}
		fmt.Fprintln(stderr, "wrote", *out)
	} else {
		stdout.Write(b)
	}

	code := 0
	if *sloP99 > 0 && res.P99MS > float64(*sloP99)/float64(time.Millisecond) {
		fmt.Fprintf(stderr, "SLO VIOLATION: p99 %.2fms > %s\n", res.P99MS, *sloP99)
		code = 1
	}
	if *sloShed >= 0 && res.ShedRate > *sloShed {
		fmt.Fprintf(stderr, "SLO VIOLATION: shed rate %.4f > %.4f\n", res.ShedRate, *sloShed)
		code = 1
	}
	if code == 0 && (*sloP99 > 0 || *sloShed >= 0) {
		fmt.Fprintln(stderr, "SLOs met")
	}
	return code
}

// atomicWriteFailAfter, when positive, aborts writeFileAtomic after that
// many bytes — a test seam standing in for a crash or full disk mid-write.
var atomicWriteFailAfter = 0

// writeFileAtomic replaces path via a temp file and rename in the same
// directory, so a reader (or a rerun after a crash) only ever sees the old
// complete file or the new complete file, never a torn one.
func writeFileAtomic(path string, data []byte) error {
	dir := filepath.Dir(path)
	f, err := os.CreateTemp(dir, "."+filepath.Base(path)+".tmp-*")
	if err != nil {
		return err
	}
	tmp := f.Name()
	fail := func(err error) error {
		f.Close()
		os.Remove(tmp)
		return err
	}
	if n := atomicWriteFailAfter; n > 0 && n < len(data) {
		if _, werr := f.Write(data[:n]); werr != nil {
			return fail(werr)
		}
		return fail(fmt.Errorf("write %s: canceled after %d bytes", path, n))
	}
	if _, err := f.Write(data); err != nil {
		return fail(err)
	}
	if err := f.Sync(); err != nil {
		return fail(err)
	}
	if err := f.Close(); err != nil {
		os.Remove(tmp)
		return err
	}
	if err := os.Rename(tmp, path); err != nil {
		os.Remove(tmp)
		return err
	}
	return nil
}

func (c *loadCfg) validate() error {
	switch c.mix {
	case "dedupe-heavy", "dedupe-free":
	default:
		return fmt.Errorf("unknown -mix %q (want dedupe-heavy or dedupe-free)", c.mix)
	}
	if c.clients < 1 {
		return fmt.Errorf("-clients %d must be >= 1", c.clients)
	}
	if c.batch < 1 || c.batch > 256 {
		return fmt.Errorf("-batch %d out of range [1, 256]", c.batch)
	}
	if c.keys < 1 {
		return fmt.Errorf("-keys %d must be >= 1", c.keys)
	}
	if c.zipfS <= 1 {
		return fmt.Errorf("-zipf %g must be > 1", c.zipfS)
	}
	if c.duration <= 0 {
		return fmt.Errorf("-duration %s must be positive", c.duration)
	}
	return nil
}

// spawnServer starts a getm-serve instance in-process on a loopback port
// with a fresh temp store, returning its base URL and a shutdown func.
func spawnServer(spans bool, stderr io.Writer) (string, func(), error) {
	dir, err := os.MkdirTemp("", "getm-load-store-*")
	if err != nil {
		return "", nil, err
	}
	s := serve.New(serve.Config{
		Workers:    runtime.GOMAXPROCS(0),
		QueueDepth: 256,
		MaxScale:   1.0,
		Store:      store.Open(dir),
		Spans:      spans,
	})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		os.RemoveAll(dir)
		return "", nil, err
	}
	httpSrv := &http.Server{Handler: s}
	go httpSrv.Serve(ln)
	shutdown := func() {
		s.Drain(10 * time.Second)
		httpSrv.Close()
		os.RemoveAll(dir)
	}
	fmt.Fprintf(stderr, "spawned server on %s\n", ln.Addr())
	return "http://" + ln.Addr().String(), shutdown, nil
}

// runMix drives one sustained measurement against targets; each closed-loop
// client pins to targets[ci mod n] so a multi-node fabric sees the load
// across its front doors.
func runMix(targets []string, cfg loadCfg, stderr io.Writer) (mixResult, error) {
	transport := &http.Transport{
		MaxIdleConns:        cfg.clients * 2,
		MaxIdleConnsPerHost: cfg.clients * 2,
	}
	client := &http.Client{Transport: transport, Timeout: 2 * time.Minute}
	defer transport.CloseIdleConnections()

	if cfg.mix == "dedupe-heavy" {
		// Warm each target: in a cluster the nodes converge through routing
		// and store sync, but the timed window should start with every front
		// door's caches hot.
		for _, url := range targets {
			if err := warmKeys(client, url, cfg); err != nil {
				return mixResult{}, fmt.Errorf("warmup %s: %w", url, err)
			}
		}
	}

	var uniqueSeed atomic.Uint64
	uniqueSeed.Store(1_000_000) // clear of the warmed dedupe-heavy key range

	type clientStats struct {
		ok, shed, errs int64
		posts          int64
		samples        []float64 // per-POST client-observed latency, ms
		srvTotal       []float64 // per-POST server-reported queue+sim+persist, ms
		srvQueue       []float64
		srvSim         []float64
		srvPersist     []float64
	}
	stats := make([]clientStats, cfg.clients)
	deadline := time.Now().Add(cfg.duration)
	start := time.Now()

	var wg sync.WaitGroup
	for ci := 0; ci < cfg.clients; ci++ {
		wg.Add(1)
		go func(ci int) {
			defer wg.Done()
			url := targets[ci%len(targets)]
			st := &stats[ci]
			rng := rand.New(rand.NewSource(cfg.seed + int64(ci)*7919))
			var zipf *rand.Zipf
			if cfg.mix == "dedupe-heavy" {
				zipf = rand.NewZipf(rng, cfg.zipfS, 1, uint64(cfg.keys-1))
			}
			clientID := fmt.Sprintf("load-%d", ci)
			for time.Now().Before(deadline) {
				specs := make([]map[string]any, cfg.batch)
				for i := range specs {
					var seed uint64
					if zipf != nil {
						seed = 1 + zipf.Uint64()
					} else {
						seed = uniqueSeed.Add(1)
					}
					specs[i] = spec(cfg, seed)
				}
				t0 := time.Now()
				ok, shed, errs, tm := post(client, url, clientID, specs)
				lat := time.Since(t0)
				st.posts++
				st.samples = append(st.samples, float64(lat)/float64(time.Millisecond))
				if tm != nil {
					st.srvTotal = append(st.srvTotal, tm.queueMS+tm.simMS+tm.persistMS)
					st.srvQueue = append(st.srvQueue, tm.queueMS)
					st.srvSim = append(st.srvSim, tm.simMS)
					st.srvPersist = append(st.srvPersist, tm.persistMS)
				}
				st.ok += ok
				st.shed += shed
				st.errs += errs
				if errs > 0 {
					// A dead or erroring server: back off instead of hot-spinning.
					time.Sleep(10 * time.Millisecond)
				}
			}
		}(ci)
	}
	wg.Wait()
	elapsed := time.Since(start)

	var res mixResult
	var all, srvTotal, srvQueue, srvSim, srvPersist []float64
	for i := range stats {
		res.OK += float64(stats[i].ok)
		res.Shed += float64(stats[i].shed)
		res.Errors += float64(stats[i].errs)
		res.Posts += float64(stats[i].posts)
		all = append(all, stats[i].samples...)
		srvTotal = append(srvTotal, stats[i].srvTotal...)
		srvQueue = append(srvQueue, stats[i].srvQueue...)
		srvSim = append(srvSim, stats[i].srvSim...)
		srvPersist = append(srvPersist, stats[i].srvPersist...)
	}
	res.Requests = res.OK + res.Shed + res.Errors
	res.DurationS = elapsed.Seconds()
	if res.DurationS > 0 {
		res.RPS = res.Requests / res.DurationS
	}
	if res.Requests > 0 {
		res.ShedRate = res.Shed / res.Requests
	}
	sort.Float64s(all)
	res.P50MS = quantile(all, 0.50)
	res.P99MS = quantile(all, 0.99)
	res.MeanMS = mean(all)
	if len(srvTotal) > 0 {
		sort.Float64s(srvTotal)
		sort.Float64s(srvQueue)
		sort.Float64s(srvSim)
		sort.Float64s(srvPersist)
		res.TimingsN = float64(len(srvTotal))
		res.ServerP50MS = quantile(srvTotal, 0.50)
		res.ServerP99MS = quantile(srvTotal, 0.99)
		res.ServerQueueP99MS = quantile(srvQueue, 0.99)
		res.ServerSimP99MS = quantile(srvSim, 0.99)
		res.ServerPersistP99MS = quantile(srvPersist, 0.99)
		fmt.Fprintf(stderr, "%s: p99 client %.2fms vs server %.2fms (queue %.2f, sim %.2f, persist %.2f; %d timed posts)\n",
			cfg.mix, res.P99MS, res.ServerP99MS,
			res.ServerQueueP99MS, res.ServerSimP99MS, res.ServerPersistP99MS, len(srvTotal))
	}
	if res.Errors > 0 {
		fmt.Fprintf(stderr, "warning: %s saw %.0f request errors\n", cfg.mix, res.Errors)
	}
	return res, nil
}

// warmKeys completes every seed in the dedupe-heavy key set once, in
// batch POSTs of at most warmChunk specs, so the timed window measures
// steady-state repeat traffic, not first-time simulations.
func warmKeys(client *http.Client, url string, cfg loadCfg) error {
	const warmChunk = 256 // the server's batch limit
	for lo := 0; lo < cfg.keys; lo += warmChunk {
		hi := lo + warmChunk
		if hi > cfg.keys {
			hi = cfg.keys
		}
		specs := make([]map[string]any, 0, hi-lo)
		for k := lo; k < hi; k++ {
			specs = append(specs, spec(cfg, uint64(1+k)))
		}
		ok, shed, errs, _ := post(client, url, "load-warmup", specs)
		if errs > 0 || shed > 0 {
			return fmt.Errorf("warming %d keys: %d ok, %d shed, %d errors", cfg.keys, ok, shed, errs)
		}
	}
	return nil
}

func spec(cfg loadCfg, seed uint64) map[string]any {
	return map[string]any{
		"protocol":  cfg.protocol,
		"benchmark": cfg.benchmark,
		"scale":     cfg.scale,
		"seed":      seed,
	}
}

// stageTimings is one POST's server-reported stage breakdown, decoded from
// the X-Getm-Timings header (present when the server runs with spans on).
type stageTimings struct {
	queueMS, simMS, persistMS float64
}

// parseTimingsHeader decodes "queue=<µs>;sim=<µs>;persist=<µs>" into
// milliseconds. Returns nil on an empty or malformed header — an absent
// sample, never a zero one.
func parseTimingsHeader(v string) *stageTimings {
	if v == "" {
		return nil
	}
	var tm stageTimings
	for _, part := range strings.Split(v, ";") {
		k, val, ok := strings.Cut(part, "=")
		if !ok {
			return nil
		}
		us, err := strconv.ParseInt(val, 10, 64)
		if err != nil {
			return nil
		}
		ms := float64(us) / 1e3
		switch k {
		case "queue":
			tm.queueMS = ms
		case "sim":
			tm.simMS = ms
		case "persist":
			tm.persistMS = ms
		default:
			return nil
		}
	}
	return &tm
}

// post submits specs (batch endpoint for >1, single otherwise) and
// classifies every logical request as ok, shed, or error. Bodies are
// drained, not parsed — shed counts ride on the status code or the
// X-Getm-Shed header, and the server's stage breakdown on X-Getm-Timings.
func post(client *http.Client, url, clientID string, specs []map[string]any) (ok, shed, errs int64, tm *stageTimings) {
	n := int64(len(specs))
	var body []byte
	var path string
	if len(specs) == 1 {
		body, _ = json.Marshal(specs[0])
		path = url + "/v1/runs"
	} else {
		body, _ = json.Marshal(specs)
		path = url + "/v1/runs/batch"
	}
	req, err := http.NewRequest("POST", path, bytes.NewReader(body))
	if err != nil {
		return 0, 0, n, nil
	}
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set("X-Client-ID", clientID)
	resp, err := client.Do(req)
	if err != nil {
		return 0, 0, n, nil
	}
	defer func() {
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
	}()
	switch {
	case resp.StatusCode == http.StatusOK:
		hdrShed := int64(0)
		if v := resp.Header.Get("X-Getm-Shed"); v != "" {
			if parsed, perr := strconv.ParseInt(v, 10, 64); perr == nil {
				hdrShed = parsed
			}
		}
		tm = parseTimingsHeader(resp.Header.Get("X-Getm-Timings"))
		return n - hdrShed, hdrShed, 0, tm
	case resp.StatusCode == http.StatusTooManyRequests,
		resp.StatusCode == http.StatusServiceUnavailable:
		return 0, n, 0, nil
	default:
		return 0, 0, n, nil
	}
}

func quantile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	idx := int(q * float64(len(sorted)-1))
	return sorted[idx]
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sum := 0.0
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}
