package main

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"sync"
	"time"

	"aimq/internal/obs"
)

// answerBody is the part of an /answer response the benchmark reads.
type answerBody struct {
	Answers []answerRow `json:"answers"`
	Work    struct {
		QueriesIssued   int `json:"queries_issued"`
		TuplesExtracted int `json:"tuples_extracted"`
		TuplesQualified int `json:"tuples_qualified"`
	} `json:"work"`
	Cached bool `json:"cached"`
	Shared bool `json:"shared"`
}

type answerRow struct {
	Values []string `json:"values"`
	Sim    float64  `json:"sim"`
}

// outcome is what the generator observed for one request. Times are
// relative to the phase start.
type outcome struct {
	q        string
	reqID    string
	traced   bool
	due      time.Duration
	sent     time.Duration // when the generator actually dispatched it
	done     time.Duration // when the body was fully read
	status   int
	err      error
	digest   uint64
	answered bool // 200 with a decodable body
	body     answerBody
}

// latency is measured from when the request was due, so a stall delays
// every request queued behind it.
func (o *outcome) latency() time.Duration { return o.done - o.due }

// lag is how late the generator dispatched the request.
func (o *outcome) lag() time.Duration { return o.sent - o.due }

// generator drives one service base URL over at most conns connections.
type generator struct {
	base   string
	conns  int
	client *http.Client
	// gate, when set, is held shared by every in-flight request; a data
	// swap takes it exclusively so no request spans two datasets.
	gate *sync.RWMutex
	// traceSeed, when non-zero, marks about half the requests for tracing.
	traceSeed uint64
	phase     string
}

func newGenerator(base string, conns int) *generator {
	tr := &http.Transport{
		MaxConnsPerHost:     conns,
		MaxIdleConnsPerHost: conns,
		IdleConnTimeout:     90 * time.Second,
	}
	return &generator{base: base, conns: conns, client: &http.Client{Transport: tr, Timeout: 30 * time.Second}}
}

func (g *generator) close() { g.client.CloseIdleConnections() }

// runOpen sends the schedule open-loop: each request goes out at its due
// time whether or not earlier ones have completed, and waits in the
// transport for one of the generator's connections when all are busy.
func (g *generator) runOpen(ctx context.Context, sched []arrival) []outcome {
	out := make([]outcome, len(sched))
	var wg sync.WaitGroup
	start := time.Now()
	for i, a := range sched {
		time.Sleep(a.due - time.Since(start))
		o := &out[i]
		o.q, o.due = a.q, a.due
		o.reqID, o.traced = g.requestID(i)
		o.sent = time.Since(start)
		wg.Add(1)
		go func() {
			defer wg.Done()
			g.do(ctx, o, start)
		}()
	}
	wg.Wait()
	return out
}

// runClosed sends qs in order over the generator's connections, each
// connection one request at a time (the untimed warm-up).
func (g *generator) runClosed(ctx context.Context, qs []string) []outcome {
	out := make([]outcome, len(qs))
	next := make(chan int)
	var wg sync.WaitGroup
	for w := 0; w < g.conns; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range next {
				out[i].q = qs[i]
				out[i].reqID = fmt.Sprintf("u-%s-warm-%d", g.phase, i)
				g.do(ctx, &out[i], time.Now())
			}
		}()
	}
	for i := range qs {
		next <- i
	}
	close(next)
	wg.Wait()
	return out
}

// requestID names request i and decides whether it is traced. The choice
// is pseudo-random per pair of consecutive requests: cold-distinct
// alternates its two query shapes, so traced and untraced requests carry
// the same mix and their latencies differ by the tracing overhead alone.
func (g *generator) requestID(i int) (string, bool) {
	traced := g.traceSeed != 0 && mix64(g.traceSeed+uint64(i/2))&1 == 1
	prefix := "u"
	if traced {
		prefix = tracedPrefix
	}
	return fmt.Sprintf("%s-%s-%d", prefix, g.phase, i), traced
}

// do issues one GET /answer and records its outcome. The request is done
// once its body has been read; decoding and digesting come after.
func (g *generator) do(ctx context.Context, o *outcome, start time.Time) {
	defer func() {
		if o.done == 0 {
			o.done = time.Since(start)
		}
	}()
	if g.gate != nil {
		g.gate.RLock()
		defer g.gate.RUnlock()
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, g.base+"/answer?q="+url.QueryEscape(o.q), nil)
	if err != nil {
		o.err = err
		return
	}
	req.Header.Set(obs.RequestIDHeader, o.reqID)
	resp, err := g.client.Do(req)
	if err != nil {
		o.err = err
		return
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	o.done = time.Since(start)
	o.status = resp.StatusCode
	if err != nil {
		o.err = err
		return
	}
	if resp.StatusCode != http.StatusOK {
		o.err = fmt.Errorf("HTTP %d: %.200s", resp.StatusCode, body)
		return
	}
	if err := json.Unmarshal(body, &o.body); err != nil {
		o.err = fmt.Errorf("decode answer: %w", err)
		return
	}
	o.answered = true
	o.digest = digestRows(o.body.Answers)
}

// mix64 is the splitmix64 finalizer: a cheap, well-spread hash of x.
func mix64(x uint64) uint64 {
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	return x ^ x>>31
}
