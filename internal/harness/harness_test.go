package harness

import (
	"strings"
	"testing"

	"getm/internal/gpu"
	"getm/internal/report"
)

// tiny returns a runner at a very small scale for fast tests.
func tiny() *Runner { return NewRunner(0.03) }

func TestRunnerCaches(t *testing.T) {
	r := tiny()
	j := Job{Proto: gpu.ProtoGETM, Bench: "atm", Conc: 4}
	m1 := r.Run(j)
	m2 := r.Run(j)
	if m1 != m2 {
		t.Fatal("identical jobs not cached")
	}
}

// A cached read keys nothing. The experiments read cells back many times (a
// scale-0.1 pass once made 1,155 reads for 297 simulations), and the runner
// keys each job once, so a cache hit costs less than one store key does
// (8 objects, store.TestKeyAllocs).
func TestCachedRunKeysOnce(t *testing.T) {
	r := tiny()
	j := Job{Proto: gpu.ProtoGETM, Bench: "atm", Conc: 4}
	r.Run(j)
	if n := testing.AllocsPerRun(100, func() { r.Run(j) }); n >= 8 {
		t.Errorf("a cached Run allocates %v objects, want fewer than a store key's 8", n)
	}
}

func TestOptimalConcSearch(t *testing.T) {
	r := tiny()
	c := r.OptimalConc(gpu.ProtoWarpTM, "ht-h")
	found := false
	for _, lvl := range ConcLevels {
		if c == lvl {
			found = true
		}
	}
	if !found {
		t.Fatalf("optimal conc %d not in levels", c)
	}
	// The optimum must actually be minimal among the measured levels.
	best := r.Run(Job{Proto: gpu.ProtoWarpTM, Bench: "ht-h", Conc: c}).TotalCycles
	for _, lvl := range ConcLevels {
		if m := r.Run(Job{Proto: gpu.ProtoWarpTM, Bench: "ht-h", Conc: lvl}); m.TotalCycles < best {
			t.Fatalf("conc %d beats reported optimum %d", lvl, c)
		}
	}
}

func TestExperimentRegistry(t *testing.T) {
	ids := map[string]bool{}
	for _, e := range All() {
		if ids[e.ID] {
			t.Fatalf("duplicate experiment id %s", e.ID)
		}
		ids[e.ID] = true
		if e.Run == nil || e.Title == "" {
			t.Fatalf("experiment %s incomplete", e.ID)
		}
	}
	for _, want := range []string{"fig3", "fig4", "fig10", "fig11", "fig12", "fig13", "fig14", "fig15", "fig16", "fig17", "table4", "table5"} {
		if !ids[want] {
			t.Fatalf("missing experiment %s", want)
		}
	}
	if _, ok := ByID("nope"); ok {
		t.Fatal("ByID accepted unknown id")
	}
}

func TestTable5Renders(t *testing.T) {
	rep := Table5(tiny())
	s := rep.String()
	for _, want := range []string{"total WarpTM", "total GETM", "lower area"} {
		if !strings.Contains(s, want) {
			t.Fatalf("table5 output missing %q", want)
		}
	}
}

func TestFig13ReportsPerBenchmark(t *testing.T) {
	rep := Fig13(tiny())
	// 9 benchmarks + avg row.
	if len(rep.Tables) != 1 || len(rep.Tables[0].Rows) != 10 {
		t.Fatalf("fig13 shape: %d tables", len(rep.Tables))
	}
}

func TestFig3Structure(t *testing.T) {
	rep := Fig3(tiny())
	var series int
	for _, row := range rep.Tables[0].Rows {
		if strings.HasPrefix(row[0].String(), "tx ") {
			series++
		}
	}
	if series != 6 { // {exec,wait,total} x {WTM, WTM-EL}
		t.Fatalf("fig3 series = %d, want 6", series)
	}
}

func TestFig11HasGmean(t *testing.T) {
	rep := Fig11(tiny())
	found := false
	for _, row := range rep.Tables[0].Rows {
		if row[0].String() == "gmean" {
			found = true
		}
	}
	if !found {
		t.Fatal("fig11 missing gmean row")
	}
}

func TestReportRendersAllFormats(t *testing.T) {
	rep := Fig13(tiny())
	if !strings.Contains(rep.Render(report.FormatCSV), "bench,avg cycles") {
		t.Fatal("csv rendering broken")
	}
	if !strings.Contains(rep.Render(report.FormatMarkdown), "| bench |") {
		t.Fatal("markdown rendering broken")
	}
}

func TestFig14HasTwoTables(t *testing.T) {
	rep := Fig14(tiny())
	if len(rep.Tables) != 2 {
		t.Fatalf("fig14 tables = %d, want 2 (size + granularity)", len(rep.Tables))
	}
}

// TestAllExperimentsRunTiny executes every registered experiment end-to-end
// at a tiny scale on one shared (cached) runner: every figure/table build
// path gets exercised, and each must yield at least one non-empty table.
func TestAllExperimentsRunTiny(t *testing.T) {
	if testing.Short() {
		t.Skip("full registry run")
	}
	r := tiny()
	if err := Precompute(r, 2); err != nil {
		t.Fatal(err)
	}
	for _, e := range All() {
		e := e
		t.Run(e.ID, func(t *testing.T) {
			rep := e.Run(r)
			if len(rep.Tables) == 0 {
				t.Fatal("no tables")
			}
			for _, tab := range rep.Tables {
				if len(tab.Rows) == 0 {
					t.Fatalf("table %s empty", tab.ID)
				}
				if out := tab.Render(report.FormatCSV); len(out) == 0 {
					t.Fatalf("table %s renders empty", tab.ID)
				}
			}
		})
	}
}
