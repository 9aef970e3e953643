package chaos

import (
	"fmt"
	"net/http"
	"strings"
	"sync"
	"time"
)

// HTTPScript turns a Plan's dispatch-layer faults into an
// http.RoundTripper (Transport) for the coordinator's HTTP client. The
// script counts HTTP exchanges (per fault, over exchanges whose path
// contains the fault's Path) and fires each fault at its Nth match:
//
//   - drop-response drops exactly the Nth matching exchange;
//   - delay-response stalls exactly the Nth matching exchange by
//     WallDelay;
//   - worker-death drops every matching exchange from the Nth onward
//     (the worker died mid-conversation and never answers again).
//
// The script is safe for concurrent use; a client sends requests from
// whatever goroutines issue them. Device-kind faults in the plan are
// ignored — they belong to the virtual-clock Injector.
type HTTPScript struct {
	mu     sync.Mutex
	faults []scriptFault
}

type scriptFault struct {
	f    Fault
	seen int
}

// NewHTTPScript builds a script from the plan's dispatch faults.
func NewHTTPScript(p Plan) *HTTPScript {
	s := &HTTPScript{}
	for _, f := range p.DispatchFaults() {
		s.faults = append(s.faults, scriptFault{f: f})
	}
	return s
}

// Transport wraps base (http.DefaultTransport when nil) so that every
// exchange passes through the script; install it as the Transport of
// dispatch.ClientConfig.HTTP. A dropped exchange fails before it
// reaches the network, as if the worker's response never arrived; a
// delayed exchange stalls first, returning early with the context's
// error if the request's context ends during the stall. A plan without
// dispatch faults gets base back unchanged.
func (s *HTTPScript) Transport(base http.RoundTripper) http.RoundTripper {
	if base == nil {
		base = http.DefaultTransport
	}
	if len(s.faults) == 0 {
		return base
	}
	return &scriptTransport{s: s, base: base}
}

type scriptTransport struct {
	s    *HTTPScript
	base http.RoundTripper
}

// RoundTrip implements http.RoundTripper.
func (t *scriptTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	drop, delay := t.s.verdict(req.URL.Path)
	fail := func(err error) (*http.Response, error) {
		if req.Body != nil {
			req.Body.Close()
		}
		return nil, err
	}
	if delay > 0 {
		timer := time.NewTimer(delay)
		select {
		case <-req.Context().Done():
			timer.Stop()
			return fail(req.Context().Err())
		case <-timer.C:
		}
	}
	if drop {
		return fail(fmt.Errorf("chaos: injected response drop (%s %s)", req.Method, req.URL.Path))
	}
	return t.base.RoundTrip(req)
}

// verdict counts one exchange on path against every fault and reports
// whether to drop it and how long to stall it first.
func (s *HTTPScript) verdict(path string) (drop bool, delay time.Duration) {
	s.mu.Lock()
	defer s.mu.Unlock()
	for i := range s.faults {
		sf := &s.faults[i]
		if sf.f.Path != "" && !strings.Contains(path, sf.f.Path) {
			continue
		}
		n := sf.seen
		sf.seen++
		switch sf.f.Kind {
		case FaultDropResponse:
			if n == sf.f.Nth {
				drop = true
			}
		case FaultWorkerDeath:
			if n >= sf.f.Nth {
				drop = true
			}
		case FaultDelayResponse:
			if n == sf.f.Nth && sf.f.WallDelay > delay {
				delay = sf.f.WallDelay
			}
		}
	}
	return drop, delay
}
