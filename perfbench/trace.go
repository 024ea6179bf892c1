package main

import (
	"bufio"
	"context"
	"fmt"
	"io"
	"net/http"
	"net/http/httptrace"
	"os"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"aimq/internal/obs"
	"aimq/internal/query"
	"aimq/internal/relation"
	"aimq/internal/webdb"
)

// The tracer records spans from the benchmark's own wrappers around each
// layer's public entry points; the program itself is not instrumented.
// Spans live in memory and are written out once, after the run.

// layer names a span's layer boundary.
type layer uint8

const (
	layerService layer = iota // http.Handler around service.Service
	layerClient               // webdb.Source given to service.New
	layerRT                   // http.RoundTripper inside the webdb.Client
	layerServer               // http.Handler around webdb.Server
	layerEngine               // webdb.Source given to webdb.NewServer
	layerLearn                // service.BuildModel
	layerRefresh              // lifecycle.Controller.RefreshOnce
	numLayers
)

var layerNames = [numLayers]string{"service", "webdb.client", "webdb.rt", "webdb.server", "engine", "learn", "lifecycle.refresh"}

func (l layer) String() string { return layerNames[l] }

// span is one timed call into a layer. Times are nanoseconds since the
// tracer's epoch.
type span struct {
	id, parent uint64
	layer      layer
	req        string // X-Request-ID of the request the span serves ("" for learn traffic)
	start, end int64
	n          int64 // tuples for source layers, response bytes for webdb.rt
	reused     bool  // webdb.rt: the connection was reused
}

func (s span) dur() int64 { return s.end - s.start }

// spanHeader carries the round-trip span's ID to the source's handler
// wrapper, linking the two sides of the hop. Only the benchmark reads it.
const spanHeader = "X-Perfbench-Span"

// tracedPrefix marks the request IDs the generator wants traced; the
// service wrapper opens a span tree only for those, so traced and untraced
// requests interleave in one run and the difference between their
// latencies is the tracing overhead.
const tracedPrefix = "t"

type tracer struct {
	epoch time.Time
	next  atomic.Uint64
	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

func (t *tracer) now() int64 { return int64(time.Since(t.epoch)) }

func (t *tracer) newID() uint64 { return t.next.Add(1) }

func (t *tracer) add(s span) {
	t.mu.Lock()
	t.spans = append(t.spans, s)
	t.mu.Unlock()
}

// snapshot returns a copy of the spans recorded so far.
func (t *tracer) snapshot() []span {
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]span(nil), t.spans...)
}

// reset drops every recorded span (setup spans are not per-request data).
func (t *tracer) reset() {
	t.mu.Lock()
	t.spans = nil
	t.mu.Unlock()
}

// active is the open span a context carries.
type active struct {
	id  uint64
	req string
}

type activeKey struct{}

func withActive(ctx context.Context, a active) context.Context {
	return context.WithValue(ctx, activeKey{}, a)
}

func activeFrom(ctx context.Context) (active, bool) {
	a, ok := ctx.Value(activeKey{}).(active)
	return a, ok
}

// wrapHandler times next as layer l. The service side opens a span only for
// traced request IDs; the source side only for calls whose round trip was
// traced (it carries spanHeader).
func (t *tracer) wrapHandler(l layer, next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		req := r.Header.Get(obs.RequestIDHeader)
		var parent uint64
		switch l {
		case layerService:
			if !strings.HasPrefix(req, tracedPrefix) {
				next.ServeHTTP(w, r)
				return
			}
		default:
			p, err := strconv.ParseUint(r.Header.Get(spanHeader), 10, 64)
			if err != nil {
				next.ServeHTTP(w, r)
				return
			}
			parent = p
		}
		s := span{id: t.newID(), parent: parent, layer: l, req: req, start: t.now()}
		next.ServeHTTP(w, r.WithContext(withActive(r.Context(), active{id: s.id, req: req})))
		s.end = t.now()
		t.add(s)
	})
}

// tracedSource times every query into src as layer l when the caller's
// context carries an open span, or when a default parent is set (learn
// traffic, which reaches the source without a context).
type tracedSource struct {
	src   webdb.Source
	t     *tracer
	layer layer
	// root, when non-zero, parents context-less calls.
	root atomic.Uint64
}

func (s *tracedSource) Schema() *relation.Schema { return s.src.Schema() }

func (s *tracedSource) Query(q *query.Query, limit int) ([]relation.Tuple, error) {
	return s.QueryContext(context.Background(), q, limit)
}

func (s *tracedSource) QueryContext(ctx context.Context, q *query.Query, limit int) ([]relation.Tuple, error) {
	a, ok := activeFrom(ctx)
	if !ok {
		if a.id = s.root.Load(); a.id == 0 {
			return webdb.QueryContext(ctx, s.src, q, limit)
		}
	}
	sp := span{id: s.t.newID(), parent: a.id, layer: s.layer, req: a.req, start: s.t.now()}
	ts, err := webdb.QueryContext(withActive(ctx, active{id: sp.id, req: a.req}), s.src, q, limit)
	sp.end = s.t.now()
	sp.n = int64(len(ts))
	s.t.add(sp)
	return ts, err
}

// Unwrap keeps webdb.Innermost walking through the wrapper.
func (s *tracedSource) Unwrap() webdb.Source { return s.src }

// tracedRT times each HTTP round trip of the webdb.Client, from sending the
// request to closing the response body, and tags the request with the
// span's ID for the source-side handler.
type tracedRT struct {
	next http.RoundTripper
	t    *tracer
}

func (rt *tracedRT) RoundTrip(r *http.Request) (*http.Response, error) {
	a, ok := activeFrom(r.Context())
	if !ok {
		return rt.next.RoundTrip(r)
	}
	sp := &span{id: rt.t.newID(), parent: a.id, layer: layerRT, req: a.req, start: rt.t.now()}
	ctx := httptrace.WithClientTrace(r.Context(), &httptrace.ClientTrace{
		GotConn: func(ci httptrace.GotConnInfo) { sp.reused = ci.Reused },
	})
	r = r.Clone(ctx)
	r.Header.Set(spanHeader, strconv.FormatUint(sp.id, 10))
	resp, err := rt.next.RoundTrip(r)
	if err != nil {
		sp.end = rt.t.now()
		rt.t.add(*sp)
		return nil, err
	}
	resp.Body = &spanBody{ReadCloser: resp.Body, sp: sp, t: rt.t}
	return resp, nil
}

// spanBody ends its round-trip span when the caller closes the body, so the
// span covers the whole response transfer.
type spanBody struct {
	io.ReadCloser
	sp   *span
	t    *tracer
	once sync.Once
}

func (b *spanBody) Read(p []byte) (int, error) {
	n, err := b.ReadCloser.Read(p)
	b.sp.n += int64(n)
	return n, err
}

func (b *spanBody) Close() error {
	err := b.ReadCloser.Close()
	b.once.Do(func() {
		b.sp.end = b.t.now()
		b.t.add(*b.sp)
	})
	return err
}

// timeSpan records one span of layer l around fn, under parent.
func (t *tracer) timeSpan(l layer, parent uint64, fn func(id uint64)) {
	s := span{id: t.newID(), parent: parent, layer: l, start: t.now()}
	fn(s.id)
	s.end = t.now()
	t.add(s)
}

// selfTimes returns, per span ID, the span's duration minus the part of its
// interval covered by its children (overlapping children count once).
func selfTimes(spans []span) map[uint64]int64 {
	type iv struct{ a, b int64 }
	kids := map[uint64][]iv{}
	for _, s := range spans {
		if s.parent != 0 {
			kids[s.parent] = append(kids[s.parent], iv{s.start, s.end})
		}
	}
	self := make(map[uint64]int64, len(spans))
	for _, s := range spans {
		ivs := kids[s.id]
		sort.Slice(ivs, func(i, j int) bool { return ivs[i].a < ivs[j].a })
		covered, cur := int64(0), s.start
		for _, c := range ivs {
			a, b := max(c.a, cur), min(c.b, s.end)
			if b > a {
				covered += b - a
				cur = b
			}
		}
		self[s.id] = s.dur() - covered
	}
	return self
}

// writeSpans dumps spans as CSV: id,parent,layer,request_id,start_ns,end_ns,n,reused.
func writeSpans(path string, spans []span) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	fmt.Fprintln(w, "id,parent,layer,request_id,start_ns,end_ns,n,reused")
	for _, s := range spans {
		fmt.Fprintf(w, "%d,%d,%s,%s,%d,%d,%d,%t\n", s.id, s.parent, s.layer, s.req, s.start, s.end, s.n, s.reused)
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
