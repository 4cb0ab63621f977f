package massbft

import (
	"os"
	"regexp"
	"strings"
	"testing"
)

// TestOperationalDocsNameExistingFiles: every scripts/…, cmd/…, examples/…,
// BENCH*.json and bench_*.txt path that the instructions a person or CI
// follows mention must exist, so deleting a program cannot leave its recipe
// behind. DESIGN.md's ledger rows and CHANGES.md are history and not scanned.
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
