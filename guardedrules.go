// Package guardedrules is a library for reasoning with guarded existential
// rule languages, reproducing "Expressiveness of Guarded Existential Rule
// Languages" (Gottlob, Rudolph, Šimkus; PODS 2014).
//
// It provides:
//
//   - a textual rule language and parser for existential rules (Datalog± /
//     tuple-generating dependencies) with stratified negation;
//   - the guardedness taxonomy of the paper — guarded, frontier-guarded,
//     weakly and nearly (frontier-)guarded theories — via affected-position
//     analysis (Definitions 1–3);
//   - the chase (oblivious and restricted) with fair scheduling and
//     budgets, and the chase-tree construction of Section 4;
//   - the paper's translations: frontier-guarded → nearly guarded
//     (Theorem 1), nearly frontier-guarded → nearly guarded
//     (Proposition 4), weakly frontier-guarded → weakly guarded
//     (Theorem 2), guarded/nearly guarded → Datalog (Theorem 3,
//     Proposition 6), and the ACDom axiomatization (Proposition 5);
//   - a semi-naive Datalog engine with stratified negation;
//   - conjunctive query answering over rule-enriched databases, including
//     the Section 7 pipeline;
//   - the EXPTIME capture machinery of Section 8: string databases,
//     alternating Turing machines compiled to weakly guarded theories
//     (Theorem 4), and the stratified Σsucc construction capturing
//     EXPTIME Boolean queries (Theorem 5).
//
// The subpackages under internal/ hold the implementation; this package
// re-exports the stable surface.
package guardedrules

import (
	"context"
	"fmt"

	"guardedrules/internal/annotate"
	"guardedrules/internal/budget"
	"guardedrules/internal/capture"
	"guardedrules/internal/chase"
	"guardedrules/internal/classify"
	"guardedrules/internal/core"
	"guardedrules/internal/database"
	"guardedrules/internal/kb"
	"guardedrules/internal/lint"
	"guardedrules/internal/normalize"
	"guardedrules/internal/parser"
	"guardedrules/internal/rewrite"
	"guardedrules/internal/saturate"
	"guardedrules/internal/termination"
	"guardedrules/internal/tm"
)

// Core syntactic types.
type (
	// Term is a constant, labeled null or variable.
	Term = core.Term
	// Atom is a relational atom, possibly with an annotated relation name.
	Atom = core.Atom
	// Rule is an existential rule with optional negated body literals.
	Rule = core.Rule
	// Theory is a finite set of rules.
	Theory = core.Theory
	// Database is an indexed set of ground atoms.
	Database = database.Database
	// Fragment is a rule language of Figure 1 of the paper.
	Fragment = classify.Fragment
	// ClassReport describes fragment membership of a theory.
	ClassReport = classify.Report
	// ChaseResult is the outcome of a chase run.
	ChaseResult = chase.Result
	// Variant selects the chase flavor (Oblivious or Restricted).
	Variant = chase.Variant
	// CQ is a conjunctive query.
	CQ = kb.CQ
	// ATM is an alternating Turing machine.
	ATM = tm.ATM
	// Diagnostic is a positioned static-analysis finding.
	Diagnostic = lint.Diagnostic
	// BudgetUsage is a snapshot of the resources a governed run consumed.
	BudgetUsage = budget.Usage
	// BudgetError is the error engines return on budget exhaustion; it
	// wraps one of the Err* sentinels and carries a BudgetUsage snapshot.
	BudgetError = budget.Error
)

// Budget exhaustion sentinels; match with errors.Is. ErrCanceled also
// matches context.Canceled, and ErrDeadline matches
// context.DeadlineExceeded.
var (
	ErrCanceled   = budget.ErrCanceled
	ErrDeadline   = budget.ErrDeadline
	ErrFactLimit  = budget.ErrFactLimit
	ErrRuleLimit  = budget.ErrRuleLimit
	ErrRoundLimit = budget.ErrRoundLimit
	ErrStepLimit  = budget.ErrStepLimit
	ErrDepthLimit = budget.ErrDepthLimit
)

// IsBudgetError reports whether err (or anything it wraps) is a budget
// exhaustion or cancellation error. Engines returning such an error still
// return a well-formed partial result.
func IsBudgetError(err error) bool { return budget.IsBudget(err) }

// recoverToError converts a panic escaping an engine into a returned
// error, so library callers never crash on malformed internal state. The
// parser's MustParse* helpers intentionally panic and are not routed
// through this boundary.
func recoverToError(err *error) {
	if r := recover(); r != nil {
		*err = fmt.Errorf("guardedrules: internal panic: %v", r)
	}
}

// Fragments of Figure 1.
const (
	Datalog               = classify.Datalog
	Guarded               = classify.Guarded
	FrontierGuarded       = classify.FrontierGuarded
	NearlyGuarded         = classify.NearlyGuarded
	NearlyFrontierGuarded = classify.NearlyFrontierGuarded
	WeaklyGuarded         = classify.WeaklyGuarded
	WeaklyFrontierGuarded = classify.WeaklyFrontierGuarded
)

// Chase variants.
const (
	Oblivious  = chase.Oblivious
	Restricted = chase.Restricted
)

// Const returns the constant with the given name.
func Const(name string) Term { return core.Const(name) }

// Var returns the variable with the given name.
func Var(name string) Term { return core.Var(name) }

// NewAtom builds an atom.
func NewAtom(rel string, args ...Term) Atom { return core.NewAtom(rel, args...) }

// ParseTheory parses a theory from the textual rule syntax, e.g.
//
//	Publication(X) -> exists K1,K2. Keywords(X,K1,K2).
//	Node(X), not Red(X) -> Green(X).
func ParseTheory(src string) (*Theory, error) { return parser.ParseTheory(src) }

// ParseFacts parses ground facts, e.g. "R(a,b). S(c).".
func ParseFacts(src string) ([]Atom, error) { return parser.ParseFacts(src) }

// NewDatabase builds a database from ground atoms.
func NewDatabase(facts ...Atom) *Database { return database.FromAtoms(facts) }

// PrintTheory renders a theory in parseable syntax.
func PrintTheory(th *Theory) string { return parser.PrintTheory(th) }

// Classify reports the Figure 1 fragments the theory belongs to.
func Classify(th *Theory) *ClassReport { return classify.Classify(th) }

// Lint runs the full static-analysis registry over the theory: fragment
// membership explainers, safety, negation stratifiability, chase
// termination, and hygiene checks. Diagnostics come back sorted by
// source position.
func Lint(th *Theory) []Diagnostic { return lint.Run(th) }

// Normalize brings a theory into the normal form of Proposition 1:
// singleton heads, guarded existential rules, constants isolated.
func Normalize(th *Theory) *Theory { return normalize.Normalize(th) }

// WFGResult is the outcome of the Theorem 2 translation; queries must be
// evaluated against databases reordered with Reorder.
type WFGResult = annotate.Result

// GuardedToDatalogCtx computes dat(Σ) of Theorem 3 for a guarded theory
// by the direct saturation, with no nearly-guarded detour (TranslateCtx
// with ToDatalog goes through Proposition 6 instead). On budget
// exhaustion the partial theory built so far is returned with a typed
// *BudgetError.
func GuardedToDatalogCtx(ctx context.Context, th *Theory, opts Options) (out *Theory, err error) {
	defer recoverToError(&err)
	out, _, err = saturate.Datalog(th, opts.saturateOptions(ctx))
	return out, err
}

// AxiomatizeACDom computes Σ* of Proposition 5, eliminating the built-in
// active-domain relation; queries move from Q to Q+"_star".
func AxiomatizeACDom(th *Theory) *Theory { return rewrite.Axiomatize(th) }

// CompileATM compiles an alternating Turing machine into the weakly
// guarded theory Σ_M of Theorem 4 over string databases of degree k; the
// 0-ary relation AcceptRel answers acceptance of w(D).
func CompileATM(m *ATM, k int, alphabet []string) (th *Theory, err error) {
	defer recoverToError(&err)
	return capture.Compile(m, k, alphabet)
}

// AcceptRel is the output relation of CompileATM theories.
const AcceptRel = capture.AcceptRel

// EncodeWord builds the string database of degree k for a word
// (Definition 20).
func EncodeWord(word []string, k int, alphabet []string) (*Database, error) {
	return capture.Encode(word, k, alphabet)
}

// BooleanQuery builds the Theorem 5 stratified weakly guarded theory for a
// Boolean query over a unary signature; BoolRel answers it.
func BooleanQuery(m *ATM, rels []string) (th *Theory, err error) {
	defer recoverToError(&err)
	return capture.BooleanQuery(m, rels)
}

// BoolRel is the output relation of BooleanQuery theories.
const BoolRel = capture.BoolRel

// EvalBoolean evaluates a Theorem 5 theory; steps bounds the machine run
// length on the given database.
func EvalBoolean(th *Theory, d *Database, steps int) (ok bool, err error) {
	defer recoverToError(&err)
	ok, _, err = capture.EvalBoolean(th, d, steps)
	return ok, err
}

// TerminationReport is the acyclicity-hierarchy analysis of a theory:
// the tightest certified class (wa ⊋ ja ⊋ swa), a machine-checkable
// certificate, and for weakly acyclic theories the fact-bound
// coefficients (internal/termination).
type TerminationReport = termination.Report

// TerminationClass names a certified chase-termination class.
type TerminationClass = termination.Class

// AnalyzeTermination runs the layered termination analysis: weak
// acyclicity, joint acyclicity, and the bounded critical-instance check,
// in that order, stopping at the tightest class that certifies. The
// report's Certificate re-verifies against the theory without trusting
// the analyzer; its Class covers the restricted chase variant (the
// critical-instance class additionally covers the oblivious variant).
func AnalyzeTermination(th *Theory) *TerminationReport { return termination.Analyze(th) }

// ChaseCertified chases d to saturation with no fact or round ceiling —
// for theories whose termination AnalyzeTermination certified. bound,
// when positive, is the certificate's priced fact bound and is asserted:
// failing to saturate within it is reported as a certificate violation.
// Pass 0 when the certificate proves finiteness without pricing it.
// Callers must use the chase variant the certificate covers (Restricted
// for wa/ja; either for the critical-instance class). The context and
// Timeout still cancel the run; the Max* ceilings and MaxDepth are
// replaced by the certificate's bound.
func ChaseCertified(ctx context.Context, th *Theory, d *Database, bound int, opts Options) (res *ChaseResult, err error) {
	defer recoverToError(&err)
	return chase.RunCertified(th, d, bound, opts.chaseOptions(ctx))
}

// ChaseTerminates reports whether the chase of th terminates on every
// database by the weak-acyclicity criterion (sound, not complete: a false
// answer does not prove non-termination).
func ChaseTerminates(th *Theory) bool { return termination.IsWeaklyAcyclic(th) }

// ParseCQ parses a conjunctive query written as a rule whose head lists
// the answer variables, e.g. "R(X,Y), S(Y) -> Ans(X).".
func ParseCQ(src string) (CQ, error) { return kb.ParseCQ(src) }

// CQContained reports q1 ⊑ q2 (every answer of q1 is an answer of q2 on
// every database) via the Chandra–Merlin homomorphism criterion.
func CQContained(q1, q2 CQ) (bool, error) { return q1.ContainedIn(q2) }
