package main

import (
	"bufio"
	"context"
	"encoding/json"
	"io"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/event"
	"repro/internal/gateway"
	"repro/internal/telemetry"
)

// The tracer records spans around the seams the program hands its
// callers — the HTTP handler, the client's RoundTripper, the detail
// source, the subscriber callbacks and the replication dialer — and
// harvests the program's own sampled stage spans from Controller.Spans,
// the recorder /debug/spans serves. It adds nothing inside the program.
// Spans stay in memory and are written out when the run ends.
type tracer struct {
	t0  time.Time
	on  atomic.Bool // tracing windows alternate with untraced ones
	ids atomic.Uint64

	mu      sync.Mutex
	spans   []span
	reqOf   map[string]uint64 // flow trace -> request id
	prog    map[string]telemetry.Span
	rtt     []time.Duration
	bytes   map[string]*[3]atomic.Int64 // endpoint -> requests, request bytes, response bytes
	cbCount atomic.Int64
	shipped atomic.Int64
}

// span is one recorded interval. Program spans keep their own ids; the
// benchmark's are "b<n>".
type span struct {
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	ID     string `json:"id"`
	Parent string `json:"parent,omitempty"`
	Req    uint64 `json:"req"`
	Trace  string `json:"trace,omitempty"`
}

func (s span) dur() time.Duration { return time.Duration(s.End - s.Start) }

// Request headers linking the client span to the handler span.
const (
	hdrReq  = "X-Bench-Req"
	hdrSpan = "X-Bench-Span"
)

type reqKey struct{}

type reqInfo struct {
	id   uint64
	span string
}

var endpoints = []string{"publish", "details", "inquire", "subscribe", "other"}

func endpointOf(path string) string {
	switch path {
	case "/ws/publish":
		return "publish"
	case "/ws/details":
		return "details"
	case "/ws/inquire":
		return "inquire"
	case "/ws/subscribe":
		return "subscribe"
	}
	return "other"
}

func newTracer() *tracer {
	t := &tracer{t0: time.Now(), reqOf: make(map[string]uint64), prog: make(map[string]telemetry.Span),
		bytes: make(map[string]*[3]atomic.Int64)}
	for _, e := range endpoints {
		t.bytes[e] = new([3]atomic.Int64)
	}
	return t
}

func (t *tracer) active() bool { return t != nil && t.on.Load() }

func (t *tracer) newID() string { return "b" + strconv.FormatUint(t.ids.Add(1), 10) }

func (t *tracer) add(s span) {
	t.mu.Lock()
	t.spans = append(t.spans, s)
	t.mu.Unlock()
}

func (t *tracer) since(at time.Time) int64 { return int64(at.Sub(t.t0)) }

// client opens the client span of one request. It is a no-op on
// untraced runs and outside tracing windows.
func (t *tracer) client(ctx context.Context, endpoint, trace string, req uint64) (context.Context, func()) {
	if !t.active() {
		return ctx, func() {}
	}
	id := t.newID()
	t.mu.Lock()
	t.reqOf[trace] = req
	t.mu.Unlock()
	ctx = context.WithValue(ctx, reqKey{}, reqInfo{id: req, span: id})
	start := time.Now()
	return ctx, func() {
		t.add(span{Name: "client " + endpoint, Start: t.since(start), End: t.since(time.Now()),
			ID: id, Req: req, Trace: trace})
	}
}

// roundTripper wraps the client transport: it stamps the request id on
// the wire and counts request and response bytes per endpoint.
func (t *tracer) roundTripper(next http.RoundTripper) http.RoundTripper {
	return rtFunc(func(req *http.Request) (*http.Response, error) {
		info, ok := req.Context().Value(reqKey{}).(reqInfo)
		if !ok {
			return next.RoundTrip(req)
		}
		req = req.Clone(req.Context()) // a RoundTripper must not modify its argument
		req.Header.Set(hdrReq, strconv.FormatUint(info.id, 10))
		req.Header.Set(hdrSpan, info.span)
		c := t.bytes[endpointOf(req.URL.Path)]
		c[0].Add(1)
		c[1].Add(req.ContentLength)
		resp, err := next.RoundTrip(req)
		if resp != nil {
			resp.Body = &countingBody{ReadCloser: resp.Body, n: &c[2]}
		}
		return resp, err
	})
}

type rtFunc func(*http.Request) (*http.Response, error)

func (f rtFunc) RoundTrip(r *http.Request) (*http.Response, error) { return f(r) }

type countingBody struct {
	io.ReadCloser
	n *atomic.Int64
}

func (b *countingBody) Read(p []byte) (int, error) {
	n, err := b.ReadCloser.Read(p)
	b.n.Add(int64(n))
	return n, err
}

// handler wraps the server's http.Handler with the handler span.
func (t *tracer) handler(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		id, err := strconv.ParseUint(r.Header.Get(hdrReq), 10, 64)
		if err != nil {
			next.ServeHTTP(w, r)
			return
		}
		start := time.Now()
		next.ServeHTTP(w, r)
		t.add(span{Name: "handler " + endpointOf(r.URL.Path), Start: t.since(start), End: t.since(time.Now()),
			ID: t.newID(), Parent: r.Header.Get(hdrSpan), Req: id, Trace: r.Header.Get(telemetry.TraceHeader)})
	})
}

// source wraps a producer gateway as the controller's detail source.
func (t *tracer) source(gw *gateway.Gateway) *tracedSource { return &tracedSource{t: t, gw: gw} }

// tracedSource times each retrieval from the producer gateway. It keeps
// the gateway's cache observer hook, so the controller still counts the
// gateway's cache.
type tracedSource struct {
	t  *tracer
	gw *gateway.Gateway
}

func (s *tracedSource) GetResponse(src event.SourceID, fields []event.FieldName) (*event.Detail, error) {
	return s.gw.GetResponse(src, fields)
}

func (s *tracedSource) GetResponseTraced(trace string, src event.SourceID, fields []event.FieldName) (*event.Detail, error) {
	if !s.t.active() {
		return s.gw.GetResponse(src, fields)
	}
	start := time.Now()
	d, err := s.gw.GetResponse(src, fields)
	end := time.Now()
	s.t.mu.Lock()
	req := s.t.reqOf[trace]
	s.t.mu.Unlock()
	s.t.add(span{Name: "gateway.source", Start: s.t.since(start), End: s.t.since(end), ID: s.t.newID(), Req: req, Trace: trace})
	return d, err
}

func (s *tracedSource) SetCacheObserver(o func(string, bool)) { s.gw.SetCacheObserver(o) }

// callback wraps a subscriber's callback endpoint.
func (t *tracer) callback(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if !t.active() {
			next.ServeHTTP(w, r)
			return
		}
		t.cbCount.Add(1)
		start := time.Now()
		next.ServeHTTP(w, r)
		trace := r.Header.Get(telemetry.TraceHeader)
		t.mu.Lock()
		req := t.reqOf[trace]
		t.mu.Unlock()
		t.add(span{Name: "callback", Start: t.since(start), End: t.since(time.Now()), ID: t.newID(), Req: req, Trace: trace})
	})
}

// dial is the replication dialer: plain TCP, metered. It counts shipped
// bytes and takes the time from the first write after an ack to the next
// ack read as one ship/ack round trip.
func (t *tracer) dial(addr string) (net.Conn, error) {
	c, err := net.DialTimeout("tcp", addr, 5*time.Second)
	if err != nil {
		return nil, err
	}
	return &meteredConn{Conn: c, t: t}, nil
}

type meteredConn struct {
	net.Conn
	t *tracer

	mu      sync.Mutex
	pending time.Time
}

func (c *meteredConn) Write(p []byte) (int, error) {
	n, err := c.Conn.Write(p)
	if c.t.active() {
		c.t.shipped.Add(int64(n))
	}
	c.mu.Lock()
	if c.pending.IsZero() {
		c.pending = time.Now()
	}
	c.mu.Unlock()
	return n, err
}

func (c *meteredConn) Read(p []byte) (int, error) {
	n, err := c.Conn.Read(p)
	if n > 0 {
		c.mu.Lock()
		since := c.pending
		c.pending = time.Time{}
		c.mu.Unlock()
		if !since.IsZero() && c.t.active() {
			c.t.mu.Lock()
			c.t.rtt = append(c.t.rtt, time.Since(since))
			c.t.mu.Unlock()
		}
	}
	return n, err
}

// harvest copies the program's retained spans of benchmark requests.
// The recorder is a ring, so it is read often during traced windows.
func (t *tracer) harvest(c *core.Controller) {
	snap := c.Spans().Snapshot()
	t.mu.Lock()
	defer t.mu.Unlock()
	for _, s := range snap {
		if _, ok := t.reqOf[s.Trace]; ok && s.ID != "" {
			t.prog[s.ID] = s
		}
	}
}

// allSpans returns the benchmark's spans and the harvested program spans
// as one list. A program flow's HTTP server span hangs under the
// benchmark's handler span of the same request, the gateway.source span
// under the program's gateway.fetch.
func (t *tracer) allSpans() []span {
	t.mu.Lock()
	defer t.mu.Unlock()
	out := append([]span(nil), t.spans...)
	handlerOf := map[uint64]string{}
	for _, s := range t.spans {
		if strings.HasPrefix(s.Name, "handler ") {
			handlerOf[s.Req] = s.ID
		}
	}
	fetchOf := map[string]string{}
	for _, s := range t.prog {
		if s.Stage == "gateway.fetch" {
			fetchOf[s.Trace] = s.ID
		}
	}
	for i := range out {
		if out[i].Name == "gateway.source" {
			out[i].Parent = fetchOf[out[i].Trace]
		}
	}
	for _, s := range t.prog {
		req := t.reqOf[s.Trace]
		parent := s.Parent
		if parent == "" {
			parent = handlerOf[req]
		}
		out = append(out, span{Name: s.Stage, Start: t.since(s.Start), End: t.since(s.Start.Add(s.Duration)),
			ID: s.ID, Parent: parent, Req: req, Trace: s.Trace})
	}
	return out
}

// write stores spans as JSON lines.
func writeSpans(path string, spans []span) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// selfTimes splits every fully traced request of the endpoint into the
// self time of each layer on its blocking path: self time is a span's
// duration minus the part its synchronous children cover. It returns the
// client durations and, per layer, the self times.
func selfTimes(spans []span, endpoint string) (client []time.Duration, layers map[string][]time.Duration) {
	root, stages := "publish", []string{"index.put", "audit.append", "bus.publish"}
	if endpoint == "details" {
		root, stages = "detail.request", []string{"consent.check", "pdp.decide", "gateway.fetch"}
	}
	byReq := map[uint64][]span{}
	for _, s := range spans {
		if s.Req != 0 {
			byReq[s.Req] = append(byReq[s.Req], s)
		}
	}
	layers = map[string][]time.Duration{}
	for _, ss := range byReq {
		var cl, hd, rt *span
		for i := range ss {
			switch ss[i].Name {
			case "client " + endpoint:
				cl = &ss[i]
			case "handler " + endpoint:
				hd = &ss[i]
			case root:
				rt = &ss[i]
			}
		}
		if cl == nil || hd == nil || rt == nil {
			continue
		}
		children := time.Duration(0)
		self := map[string]time.Duration{}
		for i := range ss {
			s := &ss[i]
			if s.Parent != rt.ID || s.End > rt.End || !contains(stages, s.Name) {
				continue // asynchronous deliveries end after the flow
			}
			children += s.dur()
			sub := time.Duration(0)
			for j := range ss {
				if ss[j].Parent == s.ID && ss[j].End <= s.End {
					sub += ss[j].dur()
					self[ss[j].Name] += ss[j].dur()
				}
			}
			self[s.Name] += s.dur() - sub
		}
		client = append(client, cl.dur())
		layers["transport.edge"] = append(layers["transport.edge"], cl.dur()-hd.dur())
		layers["transport.handler_self"] = append(layers["transport.handler_self"], hd.dur()-rt.dur())
		layers["core.self"] = append(layers["core.self"], rt.dur()-children)
		for _, st := range stages {
			layers[st] = append(layers[st], self[st])
		}
		if endpoint == "details" {
			layers["gateway.source"] = append(layers["gateway.source"], self["gateway.source"])
		}
	}
	return client, layers
}

func contains(xs []string, x string) bool {
	for _, y := range xs {
		if x == y {
			return true
		}
	}
	return false
}
