// Server-mode sweeps: -server URL submits every sweep point to a running
// getm-serve (or a cluster coordinator, which shards the points across its
// workers) instead of simulating in-process. The table is identical either
// way — simulations are deterministic and the server returns full metrics —
// but persistence, dedupe, and resume belong to the server's store, so
// -store/-resume are usage errors, and only the knobs a RunSpec can express
// (conc, cores) are sweepable remotely.

package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strings"

	"getm/internal/serve"
	"getm/internal/stats"
)

// postPoint submits one sweep point to the server and returns its metrics.
// Any outcome other than a completed run with metrics is an error: a sweep
// table only ever contains complete cells.
func postPoint(ctx context.Context, base string, sp serve.RunSpec) (*stats.Metrics, error) {
	body, err := json.Marshal(sp)
	if err != nil {
		return nil, fmt.Errorf("encode spec: %w", err)
	}
	req, err := http.NewRequestWithContext(ctx, "POST",
		strings.TrimRight(base, "/")+"/v1/runs", bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(io.LimitReader(resp.Body, 16<<20))
	if err != nil {
		return nil, err
	}
	var out serve.Response
	if err := json.Unmarshal(raw, &out); err != nil {
		return nil, fmt.Errorf("server answered %d with an undecodable body: %.200s", resp.StatusCode, raw)
	}
	if resp.StatusCode != http.StatusOK {
		msg := out.Error
		if msg == "" {
			msg = http.StatusText(resp.StatusCode)
		}
		if ra := resp.Header.Get("Retry-After"); ra != "" {
			return nil, fmt.Errorf("server refused (%d, retry after %ss): %s", resp.StatusCode, ra, msg)
		}
		return nil, fmt.Errorf("server refused (%d): %s", resp.StatusCode, msg)
	}
	if out.Status != "done" {
		return nil, fmt.Errorf("run %s finished %q: %s", out.ID, out.Status, out.Error)
	}
	if out.Metrics == nil {
		return nil, fmt.Errorf("run %s completed without metrics", out.ID)
	}
	return out.Metrics, nil
}

// serverSweepSpec builds the RunSpec for one knob-sweep point. The policy
// flag (already validated by the caller) rides along verbatim — the server
// canonicalizes it exactly like the local path does.
func serverSweepSpec(proto, policyFlag, bench string, scale float64, seed uint64, conc int, knob string, v int) serve.RunSpec {
	sp := serve.RunSpec{Benchmark: bench, Scale: scale, Seed: seed, Conc: conc}
	if policyFlag != "" {
		sp.Policy = policyFlag
	} else {
		sp.Protocol = proto
	}
	switch knob {
	case "conc":
		sp.Conc = v
	case "cores":
		sp.Cores = v
	}
	return sp
}
