package main

import (
	"strings"
	"testing"
)

// smallFleet is a three-PoP fleet over a world small enough for a test: one
// generated day, scored, so that the run trains from Collector.ByName() and
// reports through pdns.MergeStores.
func smallFleet(extra ...string) []string {
	return append([]string{
		"-pops", "3", "-days", "1", "-score",
		"-zones", "60", "-disposable-zones", "30", "-hosts-per-zone", "16",
		"-clients", "100", "-events", "8000", "-servers", "2", "-cache", "8192",
	}, extra...)
}

func runFleet(t *testing.T, args []string) string {
	t.Helper()
	var out strings.Builder
	if err := run(args, &out); err != nil {
		t.Fatalf("run %v: %v", args, err)
	}
	return out.String()
}

// TestRunIsDeterministic: the same flags print the same bytes twice, and
// -parallel prints what the sequential run prints.
func TestRunIsDeterministic(t *testing.T) {
	first := runFleet(t, smallFleet())
	for _, want := range []string{"pop 0: ", "pop 2: ", "fleet: ", "across 3 pops (hash steering); merged pdns: "} {
		if !strings.Contains(first, want) {
			t.Fatalf("output missing %q:\n%s", want, first)
		}
	}
	if strings.Contains(first, "pop 0: 0 queries") || strings.Contains(first, "merged pdns: 0 records") {
		t.Fatalf("the fleet resolved or stored nothing:\n%s", first)
	}
	if again := runFleet(t, smallFleet()); again != first {
		t.Errorf("a second run prints other bytes:\n%s\nthe first:\n%s", again, first)
	}
	if parallel := runFleet(t, smallFleet("-parallel")); parallel != first {
		t.Errorf("-parallel prints other bytes:\n%s\nsequential:\n%s", parallel, first)
	}
}

func TestRunRejectsBadFlags(t *testing.T) {
	for _, args := range [][]string{
		{"-pops", "0"},
		{"-live", "-trace", "x.jsonl"},
	} {
		var out strings.Builder
		if err := run(args, &out); err == nil {
			t.Errorf("run %v succeeded, want an error", args)
		}
	}
}
