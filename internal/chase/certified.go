package chase

import (
	"errors"
	"fmt"
	"math"

	"guardedrules/internal/budget"
	"guardedrules/internal/core"
	"guardedrules/internal/database"
)

// RunWithHook chases d0 with th like Run, additionally invoking hook on
// every newly derived atom together with the rule and the (restricted,
// existential-free) substitution of the trigger that produced it. Fresh
// nulls appear in the atom's arguments at the rule head's existential
// positions, not in the substitution. The termination analyzer's
// critical-instance check observes null lineage through this seam.
func RunWithHook(th *core.Theory, d0 *database.Database, opts Options, hook func(r *core.Rule, sub core.Subst, atom core.Atom)) (*Result, error) {
	return run(th, d0, opts, hook)
}

// RunCertified chases d0 to fixpoint with no default fact or round
// ceiling: it is the serving path for theories whose termination a
// static certificate guarantees (internal/termination). bound, when
// positive, is the certificate's derived fact bound and is asserted, not
// merely enforced — a run that exhausts it returns a
// certification-violation error, because a sound certificate makes that
// impossible. bound 0 means the certificate proves finiteness without
// pricing it (JA or critical-instance certificates); the run is then
// genuinely unbounded in facts and rounds.
//
// The caller must pass the chase variant its certificate covers: WA and
// JA certificates cover Restricted only, critical-instance certificates
// cover both variants (see internal/termination).
//
// The run builds its own budget: opts.Budget's context, timeout and fault
// injection carry over, its fact/round/step ceilings are replaced by the
// certificate's bound, and MaxDepth is ignored.
func RunCertified(th *core.Theory, d0 *database.Database, bound int, opts Options) (*Result, error) {
	var b budget.T
	if opts.Budget != nil {
		b = *opts.Budget
	}
	// +1 of headroom: the engine's pre-application cap check would
	// otherwise fire on the round's remaining (memoized) triggers when the
	// fixpoint lands exactly on the bound.
	b.MaxFacts, b.MaxRounds, b.MaxSteps = bound+1, math.MaxInt, 0
	if bound <= 0 {
		b.MaxFacts = math.MaxInt
	}
	opts.MaxDepth, opts.Budget = 0, &b
	res, err := run(th, d0, opts, nil)
	if errors.Is(err, budget.ErrFactLimit) {
		return res, fmt.Errorf("chase: certified run did not saturate within the derived bound of %d facts (%v): termination certificate violated", bound, res.Reason)
	}
	// Otherwise only cancellation/deadline can surface; the partial result
	// stays attached as with any governed run.
	return res, err
}
