package main

import "testing"

// Every experiment must run clean in quick mode; this is the harness's own
// regression test (the full tables are recorded in EXPERIMENTS.md).
func TestAllExperimentsQuick(t *testing.T) {
	if testing.Short() {
		t.Skip("experiment harness smoke test")
	}
	for _, e := range []struct {
		id  string
		run func(bool) error
	}{
		{"E1", runE1}, {"E2", runE2}, {"E3", runE3}, {"E4", runE4},
		{"E5", runE5}, {"E6", runE6}, {"E7", runE7}, {"E8", runE8},
		{"E9", runE9}, {"E10", runE10}, {"E11", runE11}, {"E12", runE12},
		{"A1", runA1}, {"A2", runA2}, {"A3", runA3}, {"A4", runA4}, {"A5", runA5},
	} {
		e := e
		t.Run(e.id, func(t *testing.T) {
			if err := e.run(true); err != nil {
				t.Fatal(err)
			}
		})
	}
}
