package rewrite_test

import (
	"bufio"
	"crypto/sha256"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"

	"guardedrules/internal/classify"
	"guardedrules/internal/core"
	"guardedrules/internal/gen"
	"guardedrules/internal/normalize"
	"guardedrules/internal/parser"
	"guardedrules/internal/rewrite"
)

// rewGoldenPath pins |rew(Σ)|, the expansion counters and a digest of
// the printed rew(Σ) of a corpus of frontier-guarded theories. The
// expansion deduplicates rules and splits up to renaming, so the counts
// change exactly when the canonical form of Definition 12's bookkeeping
// does; the digest also pins the rules themselves, their order, their
// variable names and the Aux_j numbering. Regenerate with
// UPDATE_GOLDEN=1 go test -run TestRewCountsGolden ./internal/rewrite/ —
// only when a change is meant to alter them.
const rewGoldenPath = "testdata/rew_counts.golden"

type rewTheory struct {
	name string
	th   *core.Theory
}

// rewCorpus is the random frontier-guarded theories of seeds 1–40 at 4,
// 6 and 8 rules, then every testdata/*.rules theory.
func rewCorpus(t testing.TB) []rewTheory {
	t.Helper()
	var out []rewTheory
	for _, n := range []int{4, 6, 8} {
		for s := int64(1); s <= 40; s++ {
			th := gen.RandomFrontierGuardedTheory(gen.FGTheoryOptions{Rules: n, Seed: s})
			out = append(out, rewTheory{fmt.Sprintf("fg%d/%d", n, s), th})
		}
	}
	files, err := filepath.Glob("../../testdata/*.rules")
	if err != nil {
		t.Fatal(err)
	}
	sort.Strings(files)
	for _, f := range files {
		src, err := os.ReadFile(f)
		if err != nil {
			t.Fatal(err)
		}
		th, err := parser.ParseTheory(string(src))
		if err != nil {
			t.Fatalf("%s: %v", f, err)
		}
		out = append(out, rewTheory{"testdata/" + filepath.Base(f), th})
	}
	return out
}

// rewCounts renders one golden line, or "" when the theory is outside
// the fragment Rewrite accepts.
func rewCounts(t *testing.T, rt rewTheory) string {
	t.Helper()
	if rt.th.HasNegation() || !classify.Classify(rt.th).Member[classify.NearlyFrontierGuarded] {
		return ""
	}
	rew, st, err := rewrite.Rewrite(normalize.Normalize(rt.th), rewrite.Options{})
	if err != nil {
		t.Fatalf("%s: %v", rt.name, err)
	}
	return fmt.Sprintf("%s rew=%d expansion=%d selections=%d splits=%d guard_variants=%d passthrough=%d sha256=%.16x",
		rt.name, len(rew.Rules), st.ExpansionRules, st.Selections, st.Splits, st.GuardVariants, st.Passthrough,
		sha256.Sum256([]byte(parser.PrintTheory(rew))))
}

// TestRewCountsGolden requires every count to match the pinned one
// exactly: a canonizer that merged non-isomorphic rules or split
// isomorphic ones would move them.
func TestRewCountsGolden(t *testing.T) {
	corpus := rewCorpus(t)
	if os.Getenv("UPDATE_GOLDEN") != "" {
		var b strings.Builder
		b.WriteString("# theory rew=|rew(Σ)|, rewrite.Stats counters and sha256 prefix of parser.PrintTheory(rew(Σ)); exact\n")
		for _, rt := range corpus {
			if line := rewCounts(t, rt); line != "" {
				b.WriteString(line + "\n")
			}
		}
		if err := os.WriteFile(rewGoldenPath, []byte(b.String()), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	f, err := os.Open(rewGoldenPath)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	want := map[string]string{}
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		name, _, _ := strings.Cut(line, " ")
		want[name] = line
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	seen := 0
	for _, rt := range corpus {
		got := rewCounts(t, rt)
		if got == "" {
			continue
		}
		seen++
		if w, ok := want[rt.name]; !ok {
			t.Errorf("%s: rewrites but has no golden line", rt.name)
		} else if got != w {
			t.Errorf("counts moved:\n got %s\nwant %s", got, w)
		}
	}
	if seen != len(want) {
		t.Errorf("%d theories rewrite, golden pins %d", seen, len(want))
	}
}
