package resolver

import (
	"errors"
	"testing"
	"time"

	"dnsnoise/internal/authority"
	"dnsnoise/internal/dnsmsg"
)

// flakyUpstream decorates an authority with injected transport failures:
// call n (counting from 1) fails when fail(n) says so.
type flakyUpstream struct {
	inner    *authority.Server
	fail     func(call int) bool
	failures int
	calls    int
}

var errInjected = errors.New("injected transport failure")

func (f *flakyUpstream) HandleWire(query []byte) ([]byte, error) {
	f.calls++
	if f.fail(f.calls) {
		f.failures++
		return nil, errInjected
	}
	return f.inner.HandleWire(query)
}

func always(int) bool { return true }

func flakyCluster(t *testing.T, fail func(call int) bool) (*Cluster, *flakyUpstream) {
	t.Helper()
	flaky := &flakyUpstream{inner: testUpstream(t), fail: fail}
	c, err := NewCluster(flaky, WithServers(1))
	if err != nil {
		t.Fatal(err)
	}
	return c, flaky
}

func TestRetryRecoversFromTransientFailure(t *testing.T) {
	// Every exchange's first attempt fails and its retry succeeds: no query
	// may answer SERVFAIL or surface a transport error, and each pays two
	// round trips.
	c, flaky := flakyCluster(t, func(call int) bool { return call%2 == 1 })
	const queries = 200
	for i := 0; i < queries; i++ {
		at := t0.Add(time.Duration(i) * 400 * time.Second) // defeat caching
		r, err := c.Resolve(Query{Time: at, ClientID: 1, Name: "www.example.com", Type: dnsmsg.TypeA})
		if err != nil {
			t.Fatalf("Resolve surfaced transport error: %v", err)
		}
		if r.RCode != dnsmsg.RCodeNoError {
			t.Fatalf("query %d: RCode = %v, want NOERROR after the retry", i, r.RCode)
		}
	}
	if flaky.failures != queries {
		t.Errorf("injected failures = %d, want %d", flaky.failures, queries)
	}
	st := c.Stats()
	if st.ServFails != 0 || st.UpstreamErrors != 0 {
		t.Errorf("ServFails = %d, UpstreamErrors = %d, want 0 and 0", st.ServFails, st.UpstreamErrors)
	}
	if st.UpstreamRTs != 2*queries {
		t.Errorf("UpstreamRTs = %d, want %d (two attempts a query)", st.UpstreamRTs, 2*queries)
	}
}

func TestTotalOutageDegradesToServFail(t *testing.T) {
	c, _ := flakyCluster(t, always)
	r, err := c.Resolve(Query{Time: t0, ClientID: 1, Name: "www.example.com", Type: dnsmsg.TypeA})
	if err != nil {
		t.Fatalf("outage must degrade, not error: %v", err)
	}
	if r.RCode != dnsmsg.RCodeServFail {
		t.Errorf("RCode = %v, want SERVFAIL", r.RCode)
	}
	st := c.Stats()
	if st.UpstreamErrors == 0 {
		t.Error("UpstreamErrors not counted")
	}
	// 1 initial + 1 retry.
	if st.UpstreamRTs != 2 {
		t.Errorf("UpstreamRTs = %d, want 2 (one retry)", st.UpstreamRTs)
	}
}

func TestServFailIsNotCached(t *testing.T) {
	c, flaky := flakyCluster(t, always)
	if _, err := c.Resolve(Query{Time: t0, ClientID: 1, Name: "www.example.com", Type: dnsmsg.TypeA}); err != nil {
		t.Fatal(err)
	}
	// Upstream heals; the next query must reach it rather than replay a
	// cached failure.
	flaky.fail = func(int) bool { return false }
	r, err := c.Resolve(Query{Time: t0.Add(time.Second), ClientID: 1, Name: "www.example.com", Type: dnsmsg.TypeA})
	if err != nil {
		t.Fatal(err)
	}
	if r.RCode != dnsmsg.RCodeNoError || len(r.Answers) != 1 {
		t.Errorf("post-outage resolve = %+v, want success", r)
	}
}

func TestServFailTapsObserveFailure(t *testing.T) {
	c, _ := flakyCluster(t, always)
	var below []Observation
	c.SetTaps(TapFunc(func(ob Observation) { below = append(below, ob) }), nil)
	if _, err := c.Resolve(Query{Time: t0, ClientID: 1, Name: "www.example.com", Type: dnsmsg.TypeA}); err != nil {
		t.Fatal(err)
	}
	if len(below) != 1 || below[0].RCode != dnsmsg.RCodeServFail {
		t.Errorf("below observations = %+v, want one SERVFAIL", below)
	}
}
