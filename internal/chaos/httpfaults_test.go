package chaos

import (
	"context"
	"errors"
	"net/http"
	"sync/atomic"
	"testing"
	"time"
)

// stubTransport answers every request that reaches it with an empty
// 200 and counts them: a request the script drops never gets here.
type stubTransport struct{ reached atomic.Int64 }

func (s *stubTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	s.reached.Add(1)
	return &http.Response{StatusCode: http.StatusOK, Body: http.NoBody, Request: req}, nil
}

// exchange sends one request through rt and returns its error.
func exchange(t *testing.T, ctx context.Context, rt http.RoundTripper, method, path string) error {
	t.Helper()
	req, err := http.NewRequestWithContext(ctx, method, "http://worker.test"+path, nil)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := rt.RoundTrip(req)
	if err != nil {
		return err
	}
	resp.Body.Close()
	return nil
}

func TestHTTPScriptDropNth(t *testing.T) {
	s := NewHTTPScript(Plan{Faults: []Fault{
		{Kind: FaultDropResponse, Path: "/v1/runs", Nth: 1},
	}})
	base := &stubTransport{}
	rt := s.Transport(base)
	ctx := context.Background()
	if exchange(t, ctx, rt, "POST", "/v1/runs") != nil {
		t.Error("exchange 0 dropped, want exchange 1")
	}
	if exchange(t, ctx, rt, "GET", "/healthz") != nil {
		t.Error("non-matching path dropped")
	}
	if exchange(t, ctx, rt, "POST", "/v1/runs") == nil {
		t.Error("exchange 1 not dropped")
	}
	if exchange(t, ctx, rt, "POST", "/v1/runs") != nil {
		t.Error("exchange 2 dropped; drop-response fires once")
	}
	if got := base.reached.Load(); got != 3 {
		t.Errorf("%d requests reached the network, want 3 (the drop must not)", got)
	}
}

func TestHTTPScriptWorkerDeath(t *testing.T) {
	s := NewHTTPScript(Plan{Faults: []Fault{
		{Kind: FaultWorkerDeath, Nth: 2},
	}})
	base := &stubTransport{}
	rt := s.Transport(base)
	ctx := context.Background()
	for i := 0; i < 2; i++ {
		if exchange(t, ctx, rt, "GET", "/v1/version") != nil {
			t.Fatalf("exchange %d dropped before death at 2", i)
		}
	}
	for i := 2; i < 6; i++ {
		if exchange(t, ctx, rt, "GET", "/v1/version") == nil {
			t.Fatalf("exchange %d served after worker death", i)
		}
	}
	if got := base.reached.Load(); got != 2 {
		t.Errorf("%d requests reached a dead worker's network, want 2", got)
	}
}

func TestHTTPScriptDelay(t *testing.T) {
	const delay = 200 * time.Millisecond
	s := NewHTTPScript(Plan{Faults: []Fault{
		{Kind: FaultDelayResponse, Path: "/healthz", Nth: 0, WallDelay: delay},
	}})
	rt := s.Transport(&stubTransport{})
	ctx := context.Background()
	start := time.Now()
	if err := exchange(t, ctx, rt, "GET", "/healthz"); err != nil {
		t.Fatalf("delayed exchange failed: %v", err)
	}
	if d := time.Since(start); d < delay {
		t.Errorf("exchange 0 took %v, want a stall of at least %v", d, delay)
	}
	start = time.Now()
	if err := exchange(t, ctx, rt, "GET", "/healthz"); err != nil {
		t.Fatalf("exchange 1 failed: %v", err)
	}
	if d := time.Since(start); d >= delay {
		t.Errorf("exchange 1 took %v; delay-response fires once", d)
	}

	// A stall honours the request's context.
	s = NewHTTPScript(Plan{Faults: []Fault{
		{Kind: FaultDelayResponse, Nth: 0, WallDelay: time.Hour},
	}})
	base := &stubTransport{}
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer cancel()
	if err := exchange(t, ctx, s.Transport(base), "GET", "/healthz"); !errors.Is(err, context.DeadlineExceeded) {
		t.Errorf("stalled exchange under a 20ms deadline: err = %v, want DeadlineExceeded", err)
	}
	if base.reached.Load() != 0 {
		t.Error("a request whose context ended during the stall reached the network")
	}
}

func TestHTTPScriptNoDispatchFaults(t *testing.T) {
	s := NewHTTPScript(Plan{Faults: []Fault{{Kind: FaultFail, OSD: 1}}})
	base := &stubTransport{}
	if s.Transport(base) != http.RoundTripper(base) {
		t.Error("transport wrapped for a device-only plan; want base unchanged")
	}
	if s.Transport(nil) != http.DefaultTransport {
		t.Error("nil base should resolve to http.DefaultTransport")
	}
}

func TestHTTPScriptExchangeCounting(t *testing.T) {
	s := NewHTTPScript(Plan{Faults: []Fault{
		{Kind: FaultDropResponse, Path: "/v1/runs", Nth: 5},
		{Kind: FaultWorkerDeath, Nth: 99},
	}})
	rt := s.Transport(&stubTransport{})
	ctx := context.Background()
	exchange(t, ctx, rt, "POST", "/v1/runs")
	exchange(t, ctx, rt, "GET", "/healthz")
	exchange(t, ctx, rt, "GET", "/v1/runs/abc")
	got := []int{s.faults[0].seen, s.faults[1].seen}
	if got[0] != 2 { // the two /v1/runs exchanges
		t.Errorf("fault 0 saw %d exchanges, want 2", got[0])
	}
	if got[1] != 3 { // empty path matches everything
		t.Errorf("fault 1 saw %d exchanges, want 3", got[1])
	}
}
