package parser

import (
	"strings"
	"testing"

	"guardedrules/internal/core"
	"guardedrules/internal/lint"
)

// FuzzParse checks that the parser never panics and that everything it
// accepts survives a print → re-parse round trip with the same canonical
// rules and the same printed facts, and that printing is a fixpoint:
// print → parse → print reproduces the printed text exactly. Run long
// with: go test -fuzz=FuzzParse ./internal/parser
func FuzzParse(f *testing.F) {
	seeds := []string{
		`Publication(X) -> exists K1,K2. Keywords(X,K1,K2).`,
		`R(X,Y), not S(Y) -> P(X).`,
		`-> Scientific(t1).`,
		`R[U](X) -> P[U](X).`,
		`A(X)->B(X).C(Y)->D(Y).`,
		`Zero() -> One().`,
		`R(a,_:n1).`,
		`% comment only`,
		`R(X,`,
		`not -> .`,
		"R(X) -> exists Y,Z. S(X,Y,Z).",
		"hasTopic(X,Z), hasAuthor(X,U) -> Q(U).",
		// Token text is a substring of the source: the '_:' and '?'
		// prefixes must stay out of names, in annotations too.
		"R[?u,_:n](?x,Y) -> exists ?z. P[?u](Y,?z). S[c,_:m](_:n1,d).",
	}
	for _, s := range seeds {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, src string) {
		prog, err := Parse(src)
		if err != nil {
			return // rejection is fine; panics are not
		}
		printedRules := PrintTheory(prog.Theory)
		printedFacts := PrintFacts(prog.Facts)
		re, err := Parse(printedRules + printedFacts)
		if err != nil {
			t.Fatalf("printed output failed to re-parse: %v\ninput: %q\nprinted: %q",
				err, src, printedRules+printedFacts)
		}
		if len(re.Theory.Rules) != len(prog.Theory.Rules) {
			t.Fatalf("rule count changed after round trip: %d vs %d",
				len(prog.Theory.Rules), len(re.Theory.Rules))
		}
		for i := range prog.Theory.Rules {
			if core.CanonicalKey(prog.Theory.Rules[i]) != core.CanonicalKey(re.Theory.Rules[i]) {
				t.Fatalf("rule %d changed after round trip:\n%v\n%v",
					i, prog.Theory.Rules[i], re.Theory.Rules[i])
			}
		}
		if len(re.Facts) != len(prog.Facts) {
			t.Fatalf("fact count changed after round trip: %d vs %d", len(prog.Facts), len(re.Facts))
		}
		for i := range prog.Facts {
			if a, b := PrintAtom(prog.Facts[i]), PrintAtom(re.Facts[i]); a != b {
				t.Fatalf("fact %d changed after round trip: %s vs %s", i, a, b)
			}
		}
		// Printing is a fixpoint: the printed text re-prints unchanged.
		if again := PrintTheory(re.Theory) + PrintFacts(re.Facts); again != printedRules+printedFacts {
			t.Fatalf("print → parse → print is not the identity:\nfirst:  %q\nsecond: %q",
				printedRules+printedFacts, again)
		}
	})
}

// FuzzLint feeds everything the lenient parser accepts to the full lint
// registry: no pass may panic, and every diagnostic span must lie within
// the source text.
func FuzzLint(f *testing.F) {
	seeds := []string{
		`T(X,Y), T(Y,Z) -> T(X,Z).`,
		`R(X,Y) -> P(X,W).`, // unsafe: only parses leniently
		`Node(X), not Bad(X) -> Good(X).
Node(X), not Good(X) -> Bad(X).`,
		`Person(X) -> exists Y. hasParent(X,Y).
hasParent(X,Y) -> Person(Y).`,
		`R(X) -> ACDom(X).`,
		`Wrote(X,Author), Edited(X,Authr) -> Q(Author).`,
		`R(X,Y) -> P(X).
R(X) -> P(X).`,
	}
	for _, s := range seeds {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, src string) {
		prog, err := ParseLenient(src)
		if err != nil {
			return
		}
		lines := strings.Split(src, "\n")
		for _, d := range lint.Run(prog.Theory) {
			s := d.Span
			if !s.Known() {
				continue
			}
			if s.Line > len(lines) {
				t.Fatalf("span %v beyond last line %d of input %q (diag %v)",
					s, len(lines), src, d)
			}
			// Columns are byte-based and 1-indexed; the span may point at
			// the position just past the final byte (e.g. a trailing dot).
			if s.Col > len(lines[s.Line-1])+1 {
				t.Fatalf("span %v beyond line %q of input %q (diag %v)",
					s, lines[s.Line-1], src, d)
			}
			if s.EndLine > 0 && (s.EndLine < s.Line || (s.EndLine == s.Line && s.EndCol < s.Col)) {
				t.Fatalf("span %v ends before it starts (input %q, diag %v)", s, src, d)
			}
		}
	})
}
