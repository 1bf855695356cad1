package main

import (
	"flag"
	"time"

	"guardedrules"
	"guardedrules/internal/budget"
)

// budgetFlags holds the shared resource-governance flags every
// engine-running subcommand accepts. A zero value of both flags leaves
// the subcommand's and the engines' default ceilings in force.
type budgetFlags struct {
	timeout  time.Duration
	maxFacts int
}

// addBudgetFlags registers -timeout and -max-facts on the subcommand's
// flag set.
func addBudgetFlags(fs *flag.FlagSet) *budgetFlags {
	bf := &budgetFlags{}
	fs.DurationVar(&bf.timeout, "timeout", 0, "wall-clock budget for engine runs, e.g. 30s (0 = none)")
	fs.IntVar(&bf.maxFacts, "max-facts", 0, "fact ceiling for engine runs (0 = none)")
	return bf
}

// budget builds the budget the flags describe for an engine called
// directly; defFacts is the subcommand's fact ceiling when -max-facts is
// unset (0 leaves the engine default). Nil means engine defaults.
func (bf *budgetFlags) budget(defFacts int) *budget.T {
	b := budget.T{Timeout: bf.timeout, MaxFacts: bf.maxFacts}
	if b.MaxFacts == 0 {
		b.MaxFacts = defFacts
	}
	if b.Timeout == 0 && b.MaxFacts == 0 {
		return nil
	}
	return &b
}

// options lifts the flags into the facade Options.
func (bf *budgetFlags) options() guardedrules.Options {
	return guardedrules.Options{Timeout: bf.timeout, MaxFacts: bf.maxFacts}
}
