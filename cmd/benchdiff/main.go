// Command benchdiff compares two `go test -bench` output files and prints
// per-benchmark deltas for every recorded metric (ns/op, B/op, allocs/op,
// and any custom ReportMetric units). It is a deliberately small, stdlib-only
// stand-in for benchstat: no statistics, just the percentage change between
// the two runs — enough to sanity-check a perf PR against a saved baseline.
//
// Usage:
//
//	go test -run xxx -bench . -benchmem ./... > old.txt
//	# ...make changes...
//	go test -run xxx -bench . -benchmem ./... > new.txt
//	benchdiff old.txt new.txt
//
// When a benchmark appears multiple times in one file (e.g. -count=N), the
// metric values are averaged before comparison.
//
// It also diffs interval-sample CSVs produced by `getm-sim -trace x.csv
// -trace-format csv`: a file whose first line starts with "cycle," is parsed
// as a time series, and each column is reduced to its max and mean before
// the same percentage comparison. The two input files may be of different
// kinds, but comparing a bench output against a sample CSV yields no common
// series.
//
// And it diffs result stores: when both arguments are directories, each is
// loaded as a getm result store (the `-store DIR` of getm-sim/-sweep/-bench)
// and the cells are compared pairwise by their descriptions — cycles, tx
// exec/wait, commits, aborts, crossbar bytes per cell. That turns two stored
// campaigns (say, before and after a protocol change) into one delta table:
//
//	getm-bench -scale 0.25 -store runs/base all
//	# ...make changes...
//	getm-bench -scale 0.25 -store runs/tuned all
//	benchdiff runs/base runs/tuned
//
// Store-dir diffs can be narrowed to one protocol-policy point with
// -policy (a preset name like "getm" or an axis list like
// "vm=lazy,cd=eager,res=fww,arb=ring"): only cells whose description names
// that point are compared, so a matrix campaign diffs one policy at a time:
//
//	getm-sweep -policy-grid -store runs/base
//	# ...make changes...
//	getm-sweep -policy-grid -store runs/tuned
//	benchdiff -policy vm=lazy,cd=eager,res=fww,arb=ring runs/base runs/tuned
//
// Finally it diffs the repo's recorded perf baselines (BENCH_*.json): a file
// whose first byte is "{" is parsed as JSON, every numeric leaf becomes a
// metric keyed by its object path, and strings (descriptions, hostnames,
// dates) are ignored. Comparing a fresh capture against the committed
// baseline turns "did this change regress the parallel engine?" into one
// table:
//
//	benchdiff BENCH_parallel.json /tmp/new-parallel.json
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"sort"
	"strconv"
	"strings"

	"getm/internal/policy"
	"getm/internal/store"
)

// metricKey identifies one measured series: a benchmark plus a unit.
type metricKey struct {
	bench string
	unit  string
}

// parseFile extracts metric sums and sample counts from one bench output or
// interval-sample CSV (sniffed by its "cycle,..." header line).
func parseFile(path string) (map[metricKey]float64, []string, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, nil, err
	}
	defer f.Close()

	sums := map[metricKey]float64{}
	counts := map[metricKey]int{}
	var order []string
	seen := map[string]bool{}

	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	first := true
	for sc.Scan() {
		if first {
			first = false
			if strings.HasPrefix(sc.Text(), "cycle,") {
				return parseSampleCSV(sc)
			}
			if strings.HasPrefix(strings.TrimSpace(sc.Text()), "{") {
				return parseBenchJSON(path)
			}
		}
		fields := strings.Fields(sc.Text())
		if len(fields) < 4 || !strings.HasPrefix(fields[0], "Benchmark") {
			continue
		}
		name := trimProcSuffix(fields[0])
		// fields[1] is the iteration count; metrics follow as "value unit".
		for i := 2; i+1 < len(fields); i += 2 {
			v, err := strconv.ParseFloat(fields[i], 64)
			if err != nil {
				continue
			}
			k := metricKey{bench: name, unit: fields[i+1]}
			sums[k] += v
			counts[k]++
		}
		if !seen[name] {
			seen[name] = true
			order = append(order, name)
		}
	}
	if err := sc.Err(); err != nil {
		return nil, nil, err
	}
	for k := range sums {
		sums[k] /= float64(counts[k])
	}
	return sums, order, nil
}

// parseSampleCSV reduces each time-series column of an interval-sample CSV
// to two metrics — its max and its mean over the run — keyed by the series
// name. The scanner is positioned on the header line when called.
func parseSampleCSV(sc *bufio.Scanner) (map[metricKey]float64, []string, error) {
	names := strings.Split(sc.Text(), ",")[1:] // drop the "cycle" column
	maxs := make([]float64, len(names))
	sums := make([]float64, len(names))
	rows := 0
	for sc.Scan() {
		fields := strings.Split(sc.Text(), ",")
		if len(fields) != len(names)+1 {
			continue
		}
		rows++
		for i, s := range fields[1:] {
			v, err := strconv.ParseFloat(s, 64)
			if err != nil {
				continue
			}
			sums[i] += v
			if rows == 1 || v > maxs[i] {
				maxs[i] = v
			}
		}
	}
	if err := sc.Err(); err != nil {
		return nil, nil, err
	}
	out := map[metricKey]float64{}
	for i, name := range names {
		out[metricKey{bench: name, unit: "max"}] = maxs[i]
		if rows > 0 {
			out[metricKey{bench: name, unit: "mean"}] = sums[i] / float64(rows)
		}
	}
	return out, names, nil
}

// parseBenchJSON flattens a recorded-baseline file (BENCH_*.json) into
// metrics: every numeric leaf is keyed by the path of objects holding it
// (bench) and its own field name (unit); non-numeric leaves are prose and
// are skipped. Two baselines of the same shape therefore line up leaf by
// leaf whatever their nesting.
func parseBenchJSON(path string) (map[metricKey]float64, []string, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, nil, err
	}
	var root map[string]any
	if err := json.Unmarshal(b, &root); err != nil {
		return nil, nil, fmt.Errorf("%s: %w", path, err)
	}
	out := map[metricKey]float64{}
	var order []string
	seen := map[string]bool{}
	leaf := func(prefix, field string, v float64) {
		bench := prefix
		if bench == "" {
			bench = "(top)"
		}
		out[metricKey{bench, field}] = v
		if !seen[bench] {
			seen[bench] = true
			order = append(order, bench)
		}
	}
	join := func(prefix, k string) string {
		if prefix == "" {
			return k
		}
		return prefix + "." + k
	}
	var walk func(prefix string, node map[string]any)
	var walkArr func(prefix string, arr []any)
	// Array elements key by position — "series[3]" — so two baselines with
	// the same series lengths line up element by element; a numeric element
	// is a leaf whose unit is its index.
	walkArr = func(prefix string, arr []any) {
		for i, e := range arr {
			switch v := e.(type) {
			case float64:
				leaf(prefix, fmt.Sprintf("[%d]", i), v)
			case map[string]any:
				walk(fmt.Sprintf("%s[%d]", prefix, i), v)
			case []any:
				walkArr(fmt.Sprintf("%s[%d]", prefix, i), v)
			}
		}
	}
	walk = func(prefix string, node map[string]any) {
		keys := make([]string, 0, len(node))
		for k := range node {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		for _, k := range keys {
			switch v := node[k].(type) {
			case float64:
				leaf(prefix, k, v)
			case map[string]any:
				walk(join(prefix, k), v)
			case []any:
				walkArr(join(prefix, k), v)
			}
		}
	}
	walk("", root)
	return out, order, nil
}

// parseStoreDir reduces every record of a result store to its headline
// metrics, keyed by the record's description (the runner's job key or the
// CLI's proto/bench label). Corrupt records are skipped by LoadDir, exactly
// as the runners themselves would skip them. A non-empty polFilter keeps
// only cells whose description names that policy point (see matchesPolicy).
func parseStoreDir(dir, polFilter string) (map[metricKey]float64, []string, error) {
	recs, err := store.LoadDir(dir)
	if err != nil {
		return nil, nil, err
	}
	out := map[metricKey]float64{}
	var order []string
	for _, rec := range recs {
		name := rec.Desc
		if name == "" {
			name = rec.Key
		}
		if polFilter != "" && !matchesPolicy(name, polFilter) {
			continue
		}
		m := rec.Metrics
		out[metricKey{name, "cycles"}] = float64(m.TotalCycles)
		out[metricKey{name, "tx-exec"}] = float64(m.TxExecCycles)
		out[metricKey{name, "tx-wait"}] = float64(m.TxWaitCycles)
		out[metricKey{name, "commits"}] = float64(m.Commits)
		out[metricKey{name, "aborts"}] = float64(m.Aborts)
		out[metricKey{name, "xbar-B"}] = float64(m.XbarBytes())
		order = append(order, name)
	}
	return out, order, nil
}

// trimProcSuffix drops the -GOMAXPROCS suffix so runs from machines with
// different CPU counts still line up.
func trimProcSuffix(name string) string {
	i := strings.LastIndex(name, "-")
	if i < 0 {
		return name
	}
	if _, err := strconv.Atoi(name[i+1:]); err != nil {
		return name
	}
	return name[:i]
}

// unitRank orders metrics within one benchmark: time, then space, then the
// rest alphabetically.
func unitRank(unit string) int {
	switch unit {
	case "ns/op":
		return 0
	case "B/op":
		return 1
	case "allocs/op":
		return 2
	}
	return 3
}

// matchesPolicy reports whether a store record's description names the given
// policy point. Descriptions are segment-structured — harness job keys are
// "|"-separated ("getm|ht-h|c8|…"), CLI descriptions "/"-separated
// ("getm/ht-h", "vm=…,arb=ring/atm") — so the filter compares whole
// segments, never substrings: "-policy warptm" cannot match a warptm-el
// cell. A non-preset point's segment is its bare tuple or its protocol
// identity "policy:<tuple>": harness and serve records lead with the
// identity, while older ones carried the tuple as a trailing segment.
func matchesPolicy(desc, needle string) bool {
	for _, seg := range strings.FieldsFunc(desc, func(r rune) bool { return r == '|' || r == '/' }) {
		if strings.TrimPrefix(seg, "policy:") == needle {
			return true
		}
	}
	return false
}

func main() {
	fs := flag.NewFlagSet("benchdiff", flag.ContinueOnError)
	fs.SetOutput(os.Stderr)
	policyFlag := fs.String("policy", "", "store-dir mode: compare only cells of this protocol-matrix point (preset name or axis list)")
	fs.Usage = func() {
		fmt.Fprintf(os.Stderr, "usage: %s [-policy POINT] <old-bench-output|store-dir> <new-bench-output|store-dir>\n", os.Args[0])
		fs.PrintDefaults()
	}
	if err := fs.Parse(os.Args[1:]); err != nil {
		os.Exit(2)
	}
	args := fs.Args()
	if len(args) != 2 {
		fs.Usage()
		os.Exit(2)
	}
	polFilter := ""
	if *policyFlag != "" {
		p, err := policy.Parse(*policyFlag)
		if err != nil {
			fmt.Fprintln(os.Stderr, "benchdiff:", err)
			os.Exit(2)
		}
		polFilter = p.String()
	}
	oldDir, newDir := isDir(args[0]), isDir(args[1])
	if oldDir != newDir {
		fmt.Fprintln(os.Stderr, "benchdiff: cannot compare a store directory against a file")
		os.Exit(2)
	}
	if polFilter != "" && !oldDir {
		fmt.Fprintln(os.Stderr, "benchdiff: -policy filters result-store cells; both arguments must be store directories")
		os.Exit(2)
	}
	parse := func(path string) (map[metricKey]float64, []string, error) { return parseFile(path) }
	if oldDir {
		parse = func(path string) (map[metricKey]float64, []string, error) { return parseStoreDir(path, polFilter) }
	}
	oldM, oldOrder, err := parse(args[0])
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchdiff:", err)
		os.Exit(1)
	}
	newM, newOrder, err := parse(args[1])
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchdiff:", err)
		os.Exit(1)
	}

	// Benchmarks in old-file order, then any new-only ones.
	inOld := map[string]bool{}
	for _, b := range oldOrder {
		inOld[b] = true
	}
	benches := append([]string{}, oldOrder...)
	for _, b := range newOrder {
		if !inOld[b] {
			benches = append(benches, b)
		}
	}

	w := bufio.NewWriter(os.Stdout)
	defer w.Flush()
	fmt.Fprintf(w, "%-44s %-10s %14s %14s %9s\n", "benchmark", "metric", "old", "new", "delta")
	for _, b := range benches {
		var units []string
		for k := range oldM {
			if k.bench == b {
				units = append(units, k.unit)
			}
		}
		for k := range newM {
			if k.bench == b {
				if _, ok := oldM[k]; !ok {
					units = append(units, k.unit)
				}
			}
		}
		sort.Slice(units, func(i, j int) bool {
			if r1, r2 := unitRank(units[i]), unitRank(units[j]); r1 != r2 {
				return r1 < r2
			}
			return units[i] < units[j]
		})
		for _, u := range units {
			ov, haveOld := oldM[metricKey{b, u}]
			nv, haveNew := newM[metricKey{b, u}]
			switch {
			case haveOld && haveNew:
				fmt.Fprintf(w, "%-44s %-10s %14s %14s %9s\n", b, u, fmtVal(ov), fmtVal(nv), fmtDelta(ov, nv))
			case haveOld:
				fmt.Fprintf(w, "%-44s %-10s %14s %14s %9s\n", b, u, fmtVal(ov), "-", "gone")
			default:
				fmt.Fprintf(w, "%-44s %-10s %14s %14s %9s\n", b, u, "-", fmtVal(nv), "new")
			}
		}
	}
}

// isDir reports whether path names an existing directory.
func isDir(path string) bool {
	fi, err := os.Stat(path)
	return err == nil && fi.IsDir()
}

// fmtVal prints a metric value without trailing decimal noise.
func fmtVal(v float64) string {
	if v == float64(int64(v)) {
		return strconv.FormatInt(int64(v), 10)
	}
	return strconv.FormatFloat(v, 'f', 2, 64)
}

// fmtDelta prints the relative change from old to new.
func fmtDelta(oldV, newV float64) string {
	if oldV == 0 {
		if newV == 0 {
			return "0.0%"
		}
		return "+inf%"
	}
	return fmt.Sprintf("%+.1f%%", (newV-oldV)/oldV*100)
}
