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
	"guardedrules/internal/datalog"
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
	// ChaseOptions bounds a chase run.
	//
	// Deprecated: use the unified Options with ChaseCtx. Since v2 the
	// facade wrappers taking ChaseOptions delegate to the *Ctx path:
	// the Max* integers are routed through a Budget, so exhausting one
	// returns the partial result with a typed *BudgetError instead of
	// the retired soft truncation (Truncated + Reason, nil error).
	// MaxDepth is unaffected — it stays the semantic truncation bound.
	ChaseOptions = chase.Options
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
	// Budget bounds a governed engine run: an optional context and
	// wall-clock timeout plus resource ceilings (facts, rules, rounds,
	// steps). A nil *Budget means ungoverned. On exhaustion engines return
	// their partial result together with a typed *BudgetError.
	Budget = budget.T
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

// legacyOptions lifts a v1 ChaseOptions onto the unified v2 Options:
// Variant, MaxDepth (still the semantic truncation bound) and Workers
// carry over unchanged, while the soft Max* integers become budget
// ceilings with typed exhaustion errors. DESIGN.md §6 documents the
// mapping.
func legacyOptions(o ChaseOptions) Options {
	return Options{
		Variant:   o.Variant,
		MaxDepth:  o.MaxDepth,
		Workers:   o.Workers,
		MaxFacts:  o.MaxFacts,
		MaxRounds: o.MaxRounds,
		Budget:    o.Budget,
	}
}

// Chase runs the chase of D with Σ (Section 2). Existential theories may
// have infinite chases; use MaxDepth, or the resource ceilings for typed
// exhaustion errors with partial results.
//
// Deprecated: use ChaseCtx. This wrapper delegates to it: the options'
// soft-truncating Max* semantics are retired, limits now exhaust with a
// typed *BudgetError and the partial result.
func Chase(th *Theory, d *Database, opts ChaseOptions) (*ChaseResult, error) {
	return ChaseCtx(context.Background(), th, d, legacyOptions(opts))
}

// TranslateOptions bounds the exponential translations.
//
// Deprecated: use the unified Options with TranslateCtx; its MaxRules
// and Timeout fields are routed through the Budget. The wrappers taking
// TranslateOptions now perform exactly that mapping, so there is one
// limits code path.
type TranslateOptions struct {
	// MaxRules caps intermediate rule counts (0 = defaults). Hitting the
	// cap returns an error wrapping ErrRuleLimit.
	MaxRules int
	// Budget, when non-nil, governs the translation; on exhaustion the
	// partial theory built so far is returned with a typed *BudgetError.
	Budget *Budget
}

// options lifts the legacy translate options onto the v2 Options.
func (o TranslateOptions) options() Options {
	return Options{MaxRules: o.MaxRules, Budget: o.Budget}
}

// FrontierGuardedToNearlyGuarded computes rew(Σ) of Theorem 1 /
// Proposition 4 for a (nearly) frontier-guarded theory: a nearly guarded
// theory with the same ground atomic consequences over Σ's signature. The
// input is normalized automatically.
//
// Deprecated: use TranslateCtx(ctx, th, ToNearlyGuarded, opts). This
// wrapper delegates to it, routing MaxRules through the Budget.
func FrontierGuardedToNearlyGuarded(th *Theory, opts TranslateOptions) (*Theory, error) {
	return TranslateCtx(context.Background(), th, ToNearlyGuarded, opts.options())
}

// WFGResult is the outcome of the Theorem 2 translation; queries must be
// evaluated against databases reordered with Reorder.
type WFGResult = annotate.Result

// WeaklyFrontierGuardedToWeaklyGuarded computes rew(Σ) of Theorem 2.
//
// Deprecated: use TranslateWFGCtx. This wrapper delegates to it,
// routing MaxRules through the Budget.
func WeaklyFrontierGuardedToWeaklyGuarded(th *Theory, opts TranslateOptions) (*WFGResult, error) {
	return TranslateWFGCtx(context.Background(), th, opts.options())
}

// GuardedToDatalog computes dat(Σ) of Theorem 3 for a guarded theory.
//
// Deprecated: use TranslateCtx(ctx, th, ToDatalog, opts). This wrapper
// keeps the direct Theorem 3 saturation (no nearly-guarded detour) but
// routes its limits through the v2 Budget path like TranslateCtx does.
func GuardedToDatalog(th *Theory, opts TranslateOptions) (out *Theory, err error) {
	defer recoverToError(&err)
	out, _, err = saturate.Datalog(th, opts.options().saturateOptions(context.Background()))
	return out, err
}

// NearlyGuardedToDatalog translates a nearly guarded theory into Datalog
// (Proposition 6).
//
// Deprecated: use TranslateCtx(ctx, th, ToDatalog, opts). This wrapper
// delegates to the same Proposition 6 saturation, routing its limits
// through the v2 Budget path.
func NearlyGuardedToDatalog(th *Theory, opts TranslateOptions) (out *Theory, err error) {
	defer recoverToError(&err)
	out, _, err = saturate.NearlyGuardedToDatalog(th, opts.options().saturateOptions(context.Background()))
	return out, err
}

// AxiomatizeACDom computes Σ* of Proposition 5, eliminating the built-in
// active-domain relation; queries move from Q to Q+"_star".
func AxiomatizeACDom(th *Theory) *Theory { return rewrite.Axiomatize(th) }

// EvalDatalog computes the stratified fixpoint of a Datalog program with
// the parallel semi-naive engine at its default worker count (all CPUs).
//
// Deprecated: use EvalDatalogCtx. This wrapper delegates to it.
func EvalDatalog(th *Theory, d *Database) (*Database, error) {
	return EvalDatalogCtx(context.Background(), th, d, Options{})
}

// DatalogOptions configures the semi-naive Datalog engine: the per-round
// worker count (0 = all CPUs, 1 = sequential) and the round budget. The
// derived fact set is identical for every worker count.
//
// Deprecated: use the unified Options with EvalDatalogCtx/AnswersCtx.
type DatalogOptions = datalog.Options

// EvalDatalogOpts computes the stratified fixpoint with explicit engine
// options; a Budget in opts makes the run cancellable, returning the
// facts of completed rounds alongside a typed *BudgetError.
//
// Deprecated: use EvalDatalogCtx with the unified Options. This wrapper
// delegates to the v2 lowering: the soft MaxRounds integer is routed
// through the Budget (ErrRoundLimit with the partial fixpoint); the
// Stats knob carries over unchanged.
func EvalDatalogOpts(th *Theory, d *Database, opts DatalogOptions) (out *Database, err error) {
	defer recoverToError(&err)
	o := Options{Workers: opts.Workers, MaxRounds: opts.MaxRounds, Budget: opts.Budget}
	lowered := o.datalogOptions(context.Background())
	lowered.Stats = opts.Stats
	return datalog.EvalSemiNaiveOpts(th, d, lowered)
}

// Answers evaluates the query (Σ, Q) for a Datalog Σ over D.
//
// Deprecated: use AnswersCtx. This wrapper delegates to it.
func Answers(th *Theory, q string, d *Database) ([][]Term, error) {
	return AnswersCtx(context.Background(), th, q, d, Options{})
}

// AnswerCQ answers a conjunctive query over a database enriched with a
// weakly frontier-guarded theory, by bounded chase (Section 7). The
// boolean result reports whether the chase saturated (answers are then
// exact; otherwise they are a sound under-approximation).
//
// Deprecated: use AnswerCQCtx with the unified Options. This wrapper
// delegates to it: the options' soft Max* truncation is retired, limits
// exhaust with a typed *BudgetError.
func AnswerCQ(th *Theory, q CQ, d *Database, opts ChaseOptions) ([][]Term, bool, error) {
	return AnswerCQCtx(context.Background(), th, q, d, legacyOptions(opts))
}

// EvalStratified evaluates a stratified existential theory (Definition 23)
// with the given per-stratum chase bounds. On budget exhaustion the
// partially chased database is returned (exact = false) with the error.
//
// Deprecated: use EvalStratifiedCtx with the unified Options. This
// wrapper delegates to it: the options' soft Max* truncation is
// retired, limits exhaust with a typed *BudgetError.
func EvalStratified(th *Theory, d *Database, opts ChaseOptions) (*Database, bool, error) {
	return EvalStratifiedCtx(context.Background(), th, d, legacyOptions(opts))
}

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
// for wa/ja; either for the critical-instance class).
func ChaseCertified(th *Theory, d *Database, bound int, opts ChaseOptions) (res *ChaseResult, err error) {
	defer recoverToError(&err)
	return chase.RunCertified(th, d, bound, opts)
}

// ChaseTerminates reports whether the chase of th terminates on every
// database by the weak-acyclicity criterion (sound, not complete: a false
// answer does not prove non-termination).
func ChaseTerminates(th *Theory) bool { return termination.IsWeaklyAcyclic(th) }

// CoreOf minimizes an instance to its core: the smallest homomorphically
// equivalent sub-instance (constants fixed, nulls mappable). The second
// result reports whether the search was exhaustive.
//
// Deprecated: use CoreOfCtx, which accepts a budget so core
// computation on large instances is cancellable like every other
// engine. This wrapper delegates to it ungoverned (the default
// candidate cap only).
func CoreOf(atoms []Atom) ([]Atom, bool) {
	result, exact, _ := CoreOfCtx(context.Background(), atoms, Options{})
	return result, exact
}

// ParseCQ parses a conjunctive query written as a rule whose head lists
// the answer variables, e.g. "R(X,Y), S(Y) -> Ans(X).".
func ParseCQ(src string) (CQ, error) { return kb.ParseCQ(src) }

// CQContained reports q1 ⊑ q2 (every answer of q1 is an answer of q2 on
// every database) via the Chandra–Merlin homomorphism criterion.
func CQContained(q1, q2 CQ) (bool, error) { return q1.ContainedIn(q2) }

// AnswersGoalDirected evaluates a Datalog query with the magic-sets
// rewriting: bottom-up evaluation restricted to the facts relevant to the
// query's bound constants. The query atom mixes constants (bound) and
// variables (free); answers are full tuples of the query relation.
//
// Deprecated: use AnswersGoalDirectedCtx. This wrapper delegates to it.
func AnswersGoalDirected(th *Theory, query Atom, d *Database) ([][]Term, error) {
	return AnswersGoalDirectedCtx(context.Background(), th, query, d, Options{})
}
