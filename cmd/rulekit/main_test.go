package main

import (
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

// write puts a fixture file into the test's temp dir.
func write(t *testing.T, dir, name, content string) string {
	t.Helper()
	path := filepath.Join(dir, name)
	if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

func fixtures(t *testing.T) (string, string) {
	t.Helper()
	dir := t.TempDir()
	rules := write(t, dir, "pub.rules", `
		Publication(X) -> exists K1,K2. Keywords(X,K1,K2).
		Keywords(X,K1,K2) -> hasTopic(X,K1).
		hasAuthor(X,Y), hasTopic(X,Z), Scientific(Z) -> Q(Y).
	`)
	facts := write(t, dir, "pub.facts", `
		Publication(p1). hasAuthor(p1,a1). hasTopic(p1,t1). Scientific(t1).
	`)
	return rules, facts
}

func TestCmdClassify(t *testing.T) {
	rules, _ := fixtures(t)
	if err := cmdClassify([]string{rules}); err != nil {
		t.Fatal(err)
	}
	if err := cmdClassify([]string{}); err == nil {
		t.Error("missing file must error")
	}
	if err := cmdClassify([]string{filepath.Join(t.TempDir(), "missing.rules")}); err == nil {
		t.Error("nonexistent file must error")
	}
}

func TestCmdNormalizeAndTranslate(t *testing.T) {
	rules, _ := fixtures(t)
	if err := cmdNormalize([]string{rules}); err != nil {
		t.Fatal(err)
	}
	if err := cmdTranslate([]string{"-to", "ng", rules}); err != nil {
		t.Fatal(err)
	}
	if err := cmdTranslate([]string{"-to", "nonsense", rules}); err == nil {
		t.Error("unknown target must error")
	}
}

func TestCmdChaseAndQuery(t *testing.T) {
	rules, facts := fixtures(t)
	if err := cmdChase([]string{"-data", facts, "-depth", "4", rules}); err != nil {
		t.Fatal(err)
	}
	if err := cmdQuery([]string{"-data", facts, "-rel", "Q", rules}); err != nil {
		t.Fatal(err)
	}
	if err := cmdQuery([]string{"-rel", "Q", rules}); err == nil {
		t.Error("missing -data must error")
	}
}

func TestCmdCapture(t *testing.T) {
	if err := cmdCapture([]string{"-machine", "even-length", "-word", "one,zero"}); err != nil {
		t.Fatal(err)
	}
	if err := cmdCapture([]string{"-machine", "bogus", "-word", "one"}); err == nil {
		t.Error("unknown machine must error")
	}
}

func TestCmdTerminationTreeExplainCore(t *testing.T) {
	rules, facts := fixtures(t)
	if err := cmdTermination([]string{"-v", rules}); err != nil {
		t.Fatal(err)
	}
	if err := cmdTree([]string{"-data", facts, rules}); err != nil {
		t.Fatal(err)
	}
	if err := cmdExplain([]string{"-data", facts, "-atom", "Q(a1)", rules}); err != nil {
		t.Fatal(err)
	}
	if err := cmdCore([]string{facts}); err != nil {
		t.Fatal(err)
	}
}

func TestCmdContains(t *testing.T) {
	dir := t.TempDir()
	q1 := write(t, dir, "q1.cq", `E(X,Y), E(Y,Z) -> Ans(X).`)
	q2 := write(t, dir, "q2.cq", `E(X,W) -> Ans(X).`)
	if err := cmdContains([]string{q1, q2}); err != nil {
		t.Fatal(err)
	}
	if err := cmdContains([]string{q1}); err == nil {
		t.Error("two files required")
	}
}

func TestCmdMagic(t *testing.T) {
	dir := t.TempDir()
	rules := write(t, dir, "anc.rules", `
		Par(X,Y) -> Anc(X,Y).
		Par(X,Z), Anc(Z,Y) -> Anc(X,Y).
	`)
	facts := write(t, dir, "anc.facts", `Par(a,b). Par(b,c).`)
	if err := cmdMagic([]string{"-data", facts, "-goal", "Anc(a,Y)", rules}); err != nil {
		t.Fatal(err)
	}
	if err := cmdMagic([]string{"-data", facts, rules}); err == nil {
		t.Error("missing goal must error")
	}
}

// A goal with a repeated variable answers only the tuples that bind both
// positions to the same constant: T(X,X) over a 2-cycle and a stray edge
// is T(a,a) and T(b,b), never the edges themselves.
func TestCmdMagicRepeatedVariable(t *testing.T) {
	dir := t.TempDir()
	rules := write(t, dir, "tc.rules", `
		E(X,Y) -> T(X,Y).
		T(X,Y), T(Y,Z) -> T(X,Z).
	`)
	facts := write(t, dir, "tc.facts", `E(a,b). E(b,a). E(c,d).`)
	out := captureStdout(t, func() error {
		return cmdMagic([]string{"-data", facts, "-goal", "T(X,X)", rules})
	})
	lines := strings.Fields(out)
	sort.Strings(lines)
	if got, want := strings.Join(lines, " "), "T(a,a) T(b,b)"; got != want {
		t.Errorf("magic T(X,X) printed %q, want %q", got, want)
	}
}
