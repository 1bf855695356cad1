package main

import (
	"io"
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
