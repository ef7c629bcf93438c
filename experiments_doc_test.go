package getm

import (
	"fmt"
	"os"
	"regexp"
	"slices"
	"strconv"
	"strings"
	"testing"
)

// EXPERIMENTS.md quotes full_suite_output.txt, the reproduction-scale report
// `make suite-output` regenerates. These tests keep the prose from drifting
// from it: every fenced table and every number in the headline-claims table
// must read what the output says.

func readLines(t *testing.T, name string) []string {
	t.Helper()
	b, err := os.ReadFile(name)
	if err != nil {
		t.Fatal(err)
	}
	return strings.Split(string(b), "\n")
}

// suiteSections splits the suite output into its experiments, keyed by id
// ("fig3", "table4", ...), each the lines after its "=== id: ..." banner.
func suiteSections(t *testing.T) map[string][]string {
	sections := map[string][]string{}
	id := ""
	for _, line := range readLines(t, "full_suite_output.txt") {
		if rest, ok := strings.CutPrefix(line, "=== "); ok {
			id, _, _ = strings.Cut(rest, ":")
			continue
		}
		if id != "" {
			sections[id] = append(sections[id], line)
		}
	}
	return sections
}

var numberToken = regexp.MustCompile(`^-?\d+(\.\d+)?$`)

// tableRow splits a report row into its label (the words before the first
// number) and the run of numbers that follows; words after the numbers
// (EXPERIMENTS.md's paper column) are dropped.
func tableRow(line string) (label string, nums []string) {
	fields := strings.Fields(line)
	i := 0
	for i < len(fields) && !numberToken.MatchString(fields[i]) {
		i++
	}
	for j := i; j < len(fields) && numberToken.MatchString(fields[j]); j++ {
		nums = append(nums, fields[j])
	}
	return strings.Join(fields[:i], " "), nums
}

// outputRow returns the numbers of the first row labeled label.
func outputRow(section []string, label string) ([]string, bool) {
	for _, line := range section {
		if l, nums := tableRow(line); l == label && len(nums) > 0 {
			return nums, true
		}
	}
	return nil, false
}

var figHeading = regexp.MustCompile(`^## Fig (\d+) `)

// experimentID maps an EXPERIMENTS.md heading to the experiment it quotes.
func experimentID(heading string) string {
	if m := figHeading.FindStringSubmatch(heading); m != nil {
		return "fig" + m[1]
	}
	if strings.HasPrefix(heading, "## Table IV ") {
		return "table4"
	}
	return ""
}

// Every row of every fenced table in EXPERIMENTS.md (a header row carries
// no number and is skipped; a fence with a language, like the shell block,
// is not a table) must match the row with the same label in its
// experiment's output, number for number.
func TestExperimentsTablesMatchSuiteOutput(t *testing.T) {
	sections := suiteSections(t)
	heading, inTable, inOther, checked := "", false, false, 0
	for i, line := range readLines(t, "EXPERIMENTS.md") {
		if strings.HasPrefix(line, "```") {
			switch {
			case inTable:
				inTable = false
			case inOther:
				inOther = false
			case line == "```":
				inTable = true
			default:
				inOther = true
			}
			continue
		}
		if !inTable {
			if !inOther && strings.HasPrefix(line, "## ") {
				heading = line
			}
			continue
		}
		label, nums := tableRow(line)
		if len(nums) == 0 {
			continue
		}
		section, ok := sections[experimentID(heading)]
		if !ok {
			t.Errorf("EXPERIMENTS.md:%d: the table under %q quotes no experiment of the output", i+1, heading)
			continue
		}
		want, ok := outputRow(section, label)
		if !ok {
			t.Errorf("EXPERIMENTS.md:%d: %s has no row %q", i+1, experimentID(heading), label)
			continue
		}
		if !slices.Equal(nums, want) {
			t.Errorf("EXPERIMENTS.md:%d: %s row %q reads %v, the output %v", i+1, experimentID(heading), label, nums, want)
		}
		checked++
	}
	if checked < 30 {
		t.Fatalf("checked %d table rows; the fenced tables were not found", checked)
	}
}

// The numbers of the headline-claims table's Measured column, each as the
// output gives it (HT-H's speedup, as Fig 11's WTM over GETM). Every claim
// row must be known here, so a new claim needs its source named.
func TestExperimentsHeadlineClaimsMatchSuiteOutput(t *testing.T) {
	sections := suiteSections(t)
	match := func(id, pattern string) []string {
		re := regexp.MustCompile(pattern)
		for _, line := range sections[id] {
			if m := re.FindStringSubmatch(line); m != nil {
				return m[1:]
			}
		}
		t.Fatalf("%s: no line matches %q", id, pattern)
		return nil
	}
	row := func(id, label string) []string {
		nums, ok := outputRow(sections[id], label)
		if !ok {
			t.Fatalf("%s has no row %q", id, label)
		}
		return nums
	}
	ratio := func(a, b string) string {
		x, err1 := strconv.ParseFloat(a, 64)
		y, err2 := strconv.ParseFloat(b, 64)
		if err1 != nil || err2 != nil {
			t.Fatalf("bad numbers %q, %q", a, b)
		}
		return fmt.Sprintf("%.2f", x/y)
	}
	speedup := match("fig11", `GETM vs WarpTM: (\S+)x gmean speedup, up to (\S+)x`)
	htH := row("fig11", "ht-h") // FGLock, WTM, EAPG, GETM
	vsWarpTM := match("table5", `GETM vs WarpTM: (\S+)x lower area, (\S+)x lower power`)
	vsEAPG := match("table5", `GETM vs EAPG: +(\S+)x lower area, (\S+)x lower power`)
	type claim struct {
		part string // a distinctive part of the claim cell
		want []string
	}
	claims := []claim{
		{"GETM outperforms WarpTM", speedup[:1]},
		{"GETM up to", []string{speedup[1], ratio(htH[1], htH[3])}},
		{"within ~7% of fine-grained locks", row("fig11", "gmean")[2:]},
		{"lower area than WarpTM", vsWarpTM[:1]},
		{"lower power than WarpTM", vsWarpTM[1:]},
		{"vs EAPG", vsEAPG},
	}

	number := regexp.MustCompile(`\d+(\.\d+)?`)
	inClaims, seen := false, 0
	for i, line := range readLines(t, "EXPERIMENTS.md") {
		if strings.HasPrefix(line, "## ") {
			inClaims = line == "## Headline claims"
			continue
		}
		cells := strings.Split(line, "|")
		if !inClaims || len(cells) < 4 || strings.HasPrefix(line, "|---") || strings.TrimSpace(cells[1]) == "Claim (paper)" {
			continue
		}
		text, measured := strings.TrimSpace(cells[1]), cells[2]
		k := slices.IndexFunc(claims, func(c claim) bool { return strings.Contains(text, c.part) })
		if k < 0 {
			t.Errorf("EXPERIMENTS.md:%d: claim %q has no source in this test", i+1, text)
			continue
		}
		if got := number.FindAllString(measured, -1); !slices.Equal(got, claims[k].want) {
			t.Errorf("EXPERIMENTS.md:%d: %q measures %v, the output %v", i+1, text, got, claims[k].want)
		}
		seen++
	}
	if seen != len(claims) {
		t.Fatalf("found %d headline claims, want %d", seen, len(claims))
	}
}
