package getm

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"os/exec"
	"path/filepath"
	"runtime"
	"strings"
	"testing"
	"time"

	"getm/internal/gpu"
	"getm/internal/harness"
	"getm/internal/policy"
	"getm/internal/serve"
	"getm/internal/store"
)

// identityCase is one spelling of one protocol: a policy.Parse input, or
// (policy empty) the fglock name.
type identityCase struct {
	policy string
	want   gpu.Protocol
}

// identityCases spells each of the 12 valid matrix points three ways — its
// String (a preset's name), its full canonical tuple, and a minimal tuple
// naming only vm and the axes that differ from vm's native choices — plus
// fglock, which only has its name.
func identityCases(t *testing.T) []identityCase {
	var out []identityCase
	for _, p := range policy.Valid() {
		native, err := policy.Parse("vm=" + string(p.VersionMgmt))
		if err != nil {
			t.Fatal(err)
		}
		minimal := []string{"vm=" + string(p.VersionMgmt)}
		if p.ConflictDetect != native.ConflictDetect {
			minimal = append(minimal, "cd="+string(p.ConflictDetect))
		}
		if p.Resolution != native.Resolution {
			minimal = append(minimal, "res="+string(p.Resolution))
		}
		if p.Arbitration != native.Arbitration {
			minimal = append(minimal, "arb="+string(p.Arbitration))
		}
		for _, s := range []string{p.String(), p.Canonical(), strings.Join(minimal, ",")} {
			out = append(out, identityCase{s, gpu.ProtocolOf(p)})
		}
	}
	return append(out, identityCase{"", gpu.ProtoFGLock})
}

// Every edge that names a protocol must give one cell one store key, for
// every spelling of every point: the API's Options, harness.Runner.Policy,
// serve's run id for a RunSpec, and the record getm-sim -store writes. The
// key is the one DefaultConfig(ProtocolOf(point)) hashes to.
func TestProtocolIdentityAcrossEdges(t *testing.T) {
	const bench, scale, seed = "atm", 0.01, 42
	sim := buildGetmSim(t)
	srv := serve.New(serve.Config{Workers: 1, QueueDepth: 64})
	ts := httptest.NewServer(srv)
	defer func() {
		ts.Close()
		srv.Drain(10 * time.Second)
	}()

	for _, c := range identityCases(t) {
		want := store.Key(gpu.DefaultConfig(c.want), bench, scale, seed)
		name := c.policy
		if name == "" {
			name = string(c.want)
		}

		o := Options{Protocol: string(c.want), Benchmark: bench, Scale: scale, Seed: seed}
		r := harness.NewRunner(scale)
		job := harness.Job{Proto: c.want, Bench: bench}
		spec := serve.RunSpec{Protocol: string(c.want), Benchmark: bench, Scale: scale, Seed: seed, Async: true}
		args := []string{"-proto", string(c.want)}
		if c.policy != "" {
			p, err := ParsePolicy(c.policy)
			if err != nil {
				t.Fatal(err)
			}
			o = Options{Policy: p, Benchmark: bench, Scale: scale, Seed: seed}
			r.Policy = p.internal()
			job.Proto = gpu.ProtoWarpTM // the runner's pin overrides it
			spec.Protocol, spec.Policy = "", c.policy
			args = []string{"-policy", c.policy}
		}

		// API.
		o = o.normalize()
		if got := store.Key(o.job().Config(), o.Benchmark, o.Scale, o.Seed); got != want {
			t.Errorf("%s: Options key %s, want %s", name, got, want)
		}

		// Runner.
		r.Seed = seed
		if got := r.StoreKey(job); got != want {
			t.Errorf("%s: Runner key %s, want %s", name, got, want)
		}

		// Serve: an unbudgeted run id is the store key.
		if got := submitID(t, ts.URL, spec); got != want {
			t.Errorf("%s: serve run id %s, want %s", name, got, want)
		}

		// getm-sim: the record it persists. Its header and the record's
		// description print the point the way the user names it: a preset
		// by name, any other point by its bare tuple.
		dir := t.TempDir()
		out, err := exec.Command(sim, append(args, "-bench", bench, "-scale", "0.01", "-store", dir)...).Output()
		if err != nil {
			t.Fatalf("%s: getm-sim: %v", name, err)
		}
		recs, err := store.LoadDir(dir)
		if err != nil || len(recs) != 1 {
			t.Fatalf("%s: getm-sim store holds %d records (%v), want 1", name, len(recs), err)
		}
		if got := recs[0].Key; got != want {
			t.Errorf("%s: getm-sim record %s, want %s", name, got, want)
		}
		label := strings.TrimPrefix(string(c.want), "policy:")
		if !strings.HasPrefix(string(out), "benchmark        atm ("+label+", ") || recs[0].Desc != label+"/atm" {
			t.Errorf("%s: getm-sim labels the point %q / header:\n%s", name, recs[0].Desc, out)
		}
	}
}

// buildGetmSim compiles cmd/getm-sim into the test's temp dir.
func buildGetmSim(t *testing.T) string {
	t.Helper()
	goTool, err := exec.LookPath("go")
	if err != nil {
		goTool = filepath.Join(runtime.GOROOT(), "bin", "go")
	}
	bin := filepath.Join(t.TempDir(), "getm-sim")
	if out, err := exec.Command(goTool, "build", "-o", bin, "./cmd/getm-sim").CombinedOutput(); err != nil {
		t.Fatalf("build getm-sim: %v\n%s", err, out)
	}
	return bin
}

// submitID posts an async run and returns the id the server assigned.
func submitID(t *testing.T, url string, spec serve.RunSpec) string {
	t.Helper()
	body, err := json.Marshal(spec)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url+"/v1/runs", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var out serve.Response
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit %s: status %d: %s", body, resp.StatusCode, out.Error)
	}
	return out.ID
}
