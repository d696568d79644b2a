package transport

import (
	"context"
	"net"
	"net/http"
	"strings"
	"time"

	"repro/internal/overload"
)

// routeClass is the admission profile of one endpoint family: its
// shedding priority and its default deadline, installed on the request
// context so it propagates through the controller into PDP evaluation
// and gateway fetches.
type routeClass struct {
	pri      overload.Priority
	deadline time.Duration
}

// routeClassFor classifies a request path for admission. Priorities
// implement the paper's availability ordering under pressure: accepting
// notification publications (the system of record for events) outranks
// serving detail reads, which outrank browse-style queries.
func routeClassFor(path string) routeClass {
	switch path {
	case "/ws/publish":
		return routeClass{pri: overload.Critical, deadline: 5 * time.Second}
	case "/ws/details":
		return routeClass{pri: overload.Normal, deadline: 10 * time.Second}
	case "/ws/subscribe", "/ws/policy", "/ws/consent":
		// Control-plane mutations: small, rare, and load-bearing for
		// correctness (revocations must land even under pressure).
		return routeClass{pri: overload.Critical, deadline: 5 * time.Second}
	case "/ws/inquire":
		return routeClass{pri: overload.Low, deadline: 10 * time.Second}
	default:
		// Catalog, pending, stats, audit, policies, subscription probes:
		// browse-style reads, first to shed.
		return routeClass{pri: overload.Low, deadline: 5 * time.Second}
	}
}

// exemptFromAdmission reports paths that bypass the gate entirely:
// operators must be able to scrape /metrics and probe /healthz on an
// overloaded or draining node — that is precisely when they need them.
func exemptFromAdmission(path string) bool {
	return path == "/metrics" || path == "/healthz"
}

// actorKey derives the per-actor rate-limit key for a request. With
// authentication enabled the bearer token identifies the caller; without
// it the remote host stands in. The key space is bounded by the gate's
// bucket table, so hostile key churn cannot grow memory.
func actorKey(r *http.Request) string {
	if h := r.Header.Get("Authorization"); h != "" {
		return strings.TrimPrefix(h, "Bearer ")
	}
	host, _, err := net.SplitHostPort(r.RemoteAddr)
	if err != nil {
		return r.RemoteAddr
	}
	return host
}

// SetAdmission installs an overload gate in front of every /ws route.
// Shed requests are answered fail-fast with a 429 overloaded fault and a
// Retry-After hint (the client retriers honor it); admitted requests run
// under the endpoint's default deadline, which flows through r.Context()
// into the controller. A nil gate disables admission control.
func (s *Server) SetAdmission(g *overload.Gate) *Server {
	s.gate = g
	return s
}

// gwRouteClassFor classifies local-cooperation-gateway paths. Producer
// writes (publish relay, detail persist) are the gateway's reason to
// exist and shed last; the controller's filtered retrievals degrade to
// the consumer's retry, and anything else is browse traffic.
func gwRouteClassFor(path string) routeClass {
	switch path {
	case "/gw/publish", "/gw/persist":
		return routeClass{pri: overload.Critical, deadline: 5 * time.Second}
	case "/gw/get-response":
		return routeClass{pri: overload.Normal, deadline: 10 * time.Second}
	default:
		return routeClass{pri: overload.Low, deadline: 5 * time.Second}
	}
}

// withGate is the admission middleware shared by the controller and
// gateway servers. gate is read per request (it is installed after
// construction); classify maps a path to its admission profile. It sits
// inside the telemetry middleware, so 429s are visible in the per-route
// HTTP metrics like any other response.
func withGate(gate func() *overload.Gate, classify func(string) routeClass, next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		g := gate()
		if g == nil || exemptFromAdmission(r.URL.Path) {
			next.ServeHTTP(w, r)
			return
		}
		rc := classify(r.URL.Path)
		release, d := g.Admit(rc.pri, actorKey(r))
		if !d.Admitted {
			w.Header().Set("Retry-After", overload.RetryAfterSeconds(d.RetryAfter))
			writeXML(w, http.StatusTooManyRequests, &Fault{
				Code:    CodeOverloaded,
				Message: "transport: overloaded (" + d.Reason + "), retry later",
			})
			return
		}
		defer release()
		if rc.deadline > 0 {
			ctx, cancel := context.WithTimeout(r.Context(), rc.deadline)
			defer cancel()
			r = r.WithContext(ctx)
		}
		next.ServeHTTP(w, r)
	})
}

// withAdmission wraps next in the controller's admission check.
func (s *Server) withAdmission(next http.Handler) http.Handler {
	return withGate(func() *overload.Gate { return s.gate }, routeClassFor, next)
}
