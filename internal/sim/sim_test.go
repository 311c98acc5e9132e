package sim

import (
	"io"
	"reflect"
	"strings"
	"testing"

	"dnsnoise/internal/ingest"
	"dnsnoise/internal/resolver"
)

func testScale() Scale {
	return Scale{
		Seed:               7,
		NonDisposableZones: 60,
		DisposableZones:    30,
		HostsPerZoneMax:    16,
		Clients:            100,
		BaseEventsPerDay:   4000,
		Servers:            2,
		CacheSize:          4096,
	}
}

// drain pulls up to n queries from a live source over env.
func drain(t *testing.T, env *Env, n int) []resolver.Query {
	t.Helper()
	src, dayStart, err := (&Source{Live: true, Profile: "december", Days: 1}).Open(env)
	if err != nil {
		t.Fatal(err)
	}
	defer src.Close()
	if dayStart != nil {
		t.Error("a live source needs no day-start hook")
	}
	var out []resolver.Query
	for len(out) < n {
		q, err := src.Next()
		if err == ingest.ErrPause {
			continue
		}
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, q)
	}
	return out
}

// TestNewEnvDeterministic pins the seed derivations: the same Scale builds
// the same world twice — same first 1000 generated queries, same training
// labels.
func TestNewEnvDeterministic(t *testing.T) {
	a, err := NewEnv(testScale())
	if err != nil {
		t.Fatal(err)
	}
	b, err := NewEnv(testScale())
	if err != nil {
		t.Fatal(err)
	}
	qa, qb := drain(t, a, 1000), drain(t, b, 1000)
	if len(qa) != 1000 {
		t.Fatalf("generated %d queries, want 1000", len(qa))
	}
	if !reflect.DeepEqual(qa, qb) {
		t.Error("same Scale generated different query streams")
	}
	la, lb := a.TrainingLabels(), b.TrainingLabels()
	if len(la) == 0 || !reflect.DeepEqual(la, lb) {
		t.Errorf("training labels differ or are empty (%d vs %d zones)", len(la), len(lb))
	}
	other := testScale()
	other.Seed++
	c, err := NewEnv(other)
	if err != nil {
		t.Fatal(err)
	}
	if reflect.DeepEqual(qa, drain(t, c, 1000)) {
		t.Error("a different seed generated the same stream")
	}
}

func TestSourceOpenRejectsBadModes(t *testing.T) {
	env, err := NewEnv(testScale())
	if err != nil {
		t.Fatal(err)
	}
	for name, tc := range map[string]struct {
		src  Source
		want string
	}{
		"both":        {Source{Trace: "t.jsonl", Live: true, Profile: "december"}, "mutually exclusive"},
		"neither":     {Source{Profile: "december"}, "missing -trace"},
		"bad profile": {Source{Live: true, Profile: "june"}, "unknown profile"},
	} {
		if _, _, err := tc.src.Open(env); err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: got error %v, want one mentioning %q", name, err, tc.want)
		}
	}
	src, dayStart, err := (&Source{Trace: "t.jsonl", Profile: "december"}).Open(env)
	if err != nil {
		t.Fatal(err)
	}
	src.Close()
	if dayStart == nil {
		t.Error("a trace replay needs the ReplayProfiles day-start hook")
	}
}
