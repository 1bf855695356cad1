package main

import (
	"bufio"
	"bytes"
	"io"
	"os"
	"regexp"
	"strings"
	"testing"

	"guardedrules/internal/workload"
)

// Every experiment that main runs must run clean in quick mode; this is
// the harness's own regression test (the full tables are recorded in
// EXPERIMENTS.md).
func TestAllExperimentsQuick(t *testing.T) {
	if testing.Short() {
		t.Skip("experiment harness smoke test")
	}
	for _, e := range workload.Experiments {
		t.Run(e.ID, func(t *testing.T) {
			if err := run(io.Discard, e, true, nil); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// timings matches the time.Duration strings expbench prints (97ms,
// 1.2s, 0s) and the speedup ratios it derives from them (2.9x): they
// change from run to run, so the drift check masks them.
var timings = regexp.MustCompile(`\b((\d+(\.\d+)?(ns|µs|us|ms|s|m|h))+|\d+(\.\d+)?x)\b`)

// normalize masks timings and collapses whitespace, so a table line
// matches whatever column padding EXPERIMENTS.md keeps.
func normalize(line string) string {
	return strings.Join(strings.Fields(timings.ReplaceAllString(line, "<t>")), " ")
}

// docBlocks returns the normalized lines of the code blocks under each
// experiment's heading ("## E1 — …", "### A1 — …") of EXPERIMENTS.md.
func docBlocks(t *testing.T) map[string]map[string]bool {
	t.Helper()
	f, err := os.Open("../../EXPERIMENTS.md")
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	blocks := make(map[string]map[string]bool)
	id, inBlock := "", false
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		line := sc.Text()
		switch {
		case strings.HasPrefix(line, "```"):
			inBlock = !inBlock
		case !inBlock && strings.HasPrefix(line, "#"):
			id = ""
			if fs := strings.Fields(line); len(fs) > 1 {
				id = fs[1]
			}
		case inBlock && id != "":
			if blocks[id] == nil {
				blocks[id] = make(map[string]bool)
			}
			blocks[id][normalize(line)] = true
		}
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	return blocks
}

// TestExperimentsDocMatchesOutput is the drift check of EXPERIMENTS.md:
// every experiment runs at its full sizes, and each line it prints,
// timings masked, must appear in a code block of that experiment's
// section.
func TestExperimentsDocMatchesOutput(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every experiment at its full sizes")
	}
	blocks := docBlocks(t)
	for _, e := range workload.Experiments {
		t.Run(e.ID, func(t *testing.T) {
			var out bytes.Buffer
			if err := run(&out, e, false, nil); err != nil {
				t.Fatal(err)
			}
			doc := blocks[e.ID]
			for _, line := range strings.Split(out.String(), "\n") {
				if line == "" || strings.HasPrefix(line, "== ") {
					continue
				}
				if !doc[normalize(line)] {
					t.Errorf("EXPERIMENTS.md %s lacks the output line\n\t%s", e.ID, line)
				}
			}
		})
	}
}
