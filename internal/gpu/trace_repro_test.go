package gpu_test

import (
	"bytes"
	"testing"

	. "getm/internal/gpu"
	"getm/internal/trace"
	"getm/internal/workloads"
)

// TestEAPGTraceReproducible pins that a traced EAPG run is reproducible
// event for event: two identical runs export byte-identical text traces and
// identical metrics. A broadcast's early-abort notices go out in ascending
// gwid order; they used to follow map iteration order, which reordered the
// early-abort, abort and diverge records from run to run while the metrics
// stayed the same.
func TestEAPGTraceReproducible(t *testing.T) {
	for _, bench := range []string{"ht-h", "atm"} {
		p := workloads.DefaultParams()
		p.Scale, p.Seed = 0.3, 3
		k, err := workloads.Build(bench, workloads.TM, p)
		if err != nil {
			t.Fatal(err)
		}
		cfg := DefaultConfig(ProtoEAPG)
		cfg.Core.MaxTxWarps = 8
		cfg.Trace = &trace.Options{}
		var texts [2][]byte
		var results [2]*Result
		for i := range texts {
			res, err := Run(cfg, k)
			if err != nil {
				t.Fatalf("%s: %v", bench, err)
			}
			var buf bytes.Buffer
			if err := trace.WriteText(&buf, res.Trace); err != nil {
				t.Fatal(err)
			}
			texts[i], results[i] = buf.Bytes(), res
		}
		if results[0].Metrics.Extra["eapg-early-aborts"] == 0 {
			t.Fatalf("%s: no early aborts; the run does not exercise the broadcast path", bench)
		}
		if !bytes.Equal(texts[0], texts[1]) {
			t.Errorf("%s: traced EAPG runs differ (%d vs %d bytes of text trace)", bench, len(texts[0]), len(texts[1]))
		}
		if results[0].Metrics.TotalCycles != results[1].Metrics.TotalCycles || results[0].Metrics.Aborts != results[1].Metrics.Aborts {
			t.Errorf("%s: metrics differ between identical runs", bench)
		}
	}
}
