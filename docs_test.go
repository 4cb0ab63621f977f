package massbft

import (
	"os"
	"reflect"
	"regexp"
	"strings"
	"testing"

	"massbft/internal/metrics"
)

// TestOperationalDocsNameExistingFiles: every scripts/…, cmd/…, examples/…,
// BENCH*.json and bench_*.txt path that the instructions a person or CI
// follows mention must exist, so deleting a program cannot leave its recipe
// behind. DESIGN.md and CHANGES.md are history and not scanned.
func TestOperationalDocsNameExistingFiles(t *testing.T) {
	paths := regexp.MustCompile(`\b(?:scripts|cmd|examples)/[\w.-]+|\bBENCH\w*\.json|\bbench_\w+\.txt`)
	for _, doc := range []string{"README.md", "EXPERIMENTS.md", "scripts/check.sh",
		".github/workflows/ci.yml", ".claude/skills/verify/SKILL.md"} {
		raw, err := os.ReadFile(doc)
		if err != nil {
			t.Fatal(err)
		}
		for _, p := range paths.FindAllString(string(raw), -1) {
			p = strings.TrimRight(p, ".")
			if _, err := os.Stat(p); err != nil {
				t.Errorf("%s names %s: %v", doc, p, err)
			}
		}
	}
}

// TestReadersNameDeclaredCounters: every counter name that the bench harness,
// the node smoke script, DESIGN.md §6's recovery tables and Cluster.Counter's
// doc read is declared by metrics.Counts, so a rename cannot leave a reader
// silently reading zero.
func TestReadersNameDeclaredCounters(t *testing.T) {
	col := metrics.NewCollector()
	v := reflect.ValueOf(&col.Counts).Elem()
	for i := 0; i < v.NumField(); i++ {
		v.Field(i).SetInt(1)
	}
	declared := col.Counters()
	quoted := regexp.MustCompile(`"([a-z-]+)"`)
	for _, r := range []struct {
		file, from, to string         // the reading part: the text from `from` to `to`
		names          *regexp.Regexp // the first group is a counter name
	}{
		{"bench/sim.go", "var windowCounters", "}", quoted},
		{"bench/tcp.go", "", "", regexp.MustCompile(`t\.counters\["([a-z-]+)"\]`)},
		{"scripts/node_smoke.sh", "", "", regexp.MustCompile(`get\('counters'\) or \{\}\)\.get\('([a-z-]+)'`)},
		{"DESIGN.md", "## 6.", "## 7.", regexp.MustCompile("`([a-z-]+)`")},
		{"massbft.go", "// Counter reads", "func (c *Cluster) Counter", quoted},
	} {
		raw, err := os.ReadFile(r.file)
		if err != nil {
			t.Fatal(err)
		}
		text := string(raw)
		if r.from != "" {
			text = text[strings.Index(text, r.from):]
			text = text[:strings.Index(text, r.to)]
		}
		if r.file == "DESIGN.md" {
			text = counterColumn(text)
		}
		found := r.names.FindAllStringSubmatch(text, -1)
		if len(found) == 0 {
			t.Errorf("%s: no counter name found", r.file)
		}
		for _, m := range found {
			if declared[m[1]] == 0 {
				t.Errorf("%s reads %q, which metrics.Counts does not declare", r.file, m[1])
			}
		}
	}
}

// counterColumn returns the last cells of the rows of the markdown tables in
// text whose last column is headed "counter".
func counterColumn(text string) string {
	var cells []string
	in := false
	for _, line := range strings.Split(text, "\n") {
		if !strings.HasPrefix(line, "|") {
			in = false
			continue
		}
		row := strings.Split(strings.Trim(line, "| "), "|")
		last := strings.TrimSpace(row[len(row)-1])
		if in {
			cells = append(cells, last)
		} else {
			in = last == "counter"
		}
	}
	return strings.Join(cells, "\n")
}
