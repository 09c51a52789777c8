package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"gaussrange/client"
	"gaussrange/server"
)

// outcome is what one op returned.
type outcome struct {
	status  int     // HTTP status; 0 on a transport error
	err     string  // non-empty when the op failed at the transport or HTTP level
	ids     []int64 // query answer, or the ids an insert was assigned
	epoch   uint64  // epoch the answer pinned or the write published
	deleted bool    // delete: whether the id was live
	stats   server.QueryStats
}

// record is one executed op.
type record struct {
	op     int // index into the op sequence
	kind   opKind
	window string // "warmup", "timed", "direct" or "traced"
	lat    time.Duration
	out    outcome
	wrong  bool // set by the answer or durability check
}

func (r *record) ok() bool { return r.out.err == "" && !r.wrong }

// execFunc runs one op against some target and reports its outcome.
type execFunc func(ctx context.Context, i int, o *op) outcome

// newClient returns a client with one kept-alive connection per closed-loop
// caller and no retries, so a transport error is never masked.
func newClient(url string, hc *http.Client) *client.Client {
	return client.New(url, client.WithHTTPClient(hc), client.WithRetries(0))
}

// newHTTPClient keeps up to conns idle connections to the one host.
func newHTTPClient(conns int) *http.Client {
	return &http.Client{
		Timeout:   60 * time.Second,
		Transport: &http.Transport{MaxIdleConnsPerHost: conns, DisableCompression: true},
	}
}

// httpExec sends ops over HTTP with the Go client.
func httpExec(cl *client.Client) execFunc {
	return func(ctx context.Context, _ int, o *op) outcome {
		var (
			out outcome
			err error
		)
		switch o.kind {
		case opQuery:
			var resp server.QueryResponse
			resp, err = cl.QueryRaw(ctx, o.query)
			out = outcome{ids: resp.IDs, epoch: resp.Epoch, stats: resp.Stats}
		case opInsert:
			out.ids, out.epoch, err = cl.InsertPoints(ctx, o.pts)
		case opDelete:
			out.deleted, out.epoch, err = cl.DeletePoint(ctx, o.id)
		}
		return classify(out, err)
	}
}

// classify fills status and err from a client error.
func classify(out outcome, err error) outcome {
	out.status = http.StatusOK
	if err == nil {
		return out
	}
	var ae *client.APIError
	if errors.As(err, &ae) {
		out.status = ae.Status
	} else {
		out.status = 0
	}
	out.err = err.Error()
	return out
}

// directExec serves queries through the real handler's ServeHTTP with no
// socket: the request body is encoded beforehand and the response decoded
// afterwards, both outside the timed call. Only queries are supported.
func directExec(h http.Handler, handlerNS *[]int64, mu *sync.Mutex) execFunc {
	return func(ctx context.Context, _ int, o *op) outcome {
		body, err := json.Marshal(o.query)
		if err != nil {
			return outcome{err: err.Error()}
		}
		req := httptest.NewRequest(http.MethodPost, "/v1/query", bytes.NewReader(body)).WithContext(ctx)
		rec := httptest.NewRecorder()
		t0 := time.Now()
		h.ServeHTTP(rec, req)
		d := time.Since(t0)
		mu.Lock()
		*handlerNS = append(*handlerNS, d.Nanoseconds())
		mu.Unlock()
		if rec.Code != http.StatusOK {
			return outcome{status: rec.Code, err: "HTTP " + strconv.Itoa(rec.Code) + ": " + rec.Body.String()}
		}
		var resp server.QueryResponse
		if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
			return outcome{status: rec.Code, err: err.Error()}
		}
		return outcome{status: rec.Code, ids: resp.IDs, epoch: resp.Epoch, stats: resp.Stats}
	}
}

// loop is a closed-loop load generator: clients callers each take the next
// op of the shared sequence, send it and wait for the reply before taking
// another. It runs until dur has elapsed (or, when maxOps > 0, until that
// many ops were taken) and returns every record and the elapsed wall time.
// skip, when non-nil, drops ops a window does not send.
type loop struct {
	ops     []op
	next    *atomic.Int64 // shared cursor into ops, so windows continue the sequence
	clients int
}

func (l *loop) run(window string, exec execFunc, dur time.Duration, maxOps int, skip func(*op) bool) ([]record, time.Duration, error) {
	var (
		wg      sync.WaitGroup
		mu      sync.Mutex
		all     []record
		taken   atomic.Int64
		drained atomic.Bool
	)
	ctx := context.Background()
	start := time.Now()
	deadline := start.Add(dur)
	for c := 0; c < l.clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var mine []record
			for {
				if dur > 0 && !time.Now().Before(deadline) {
					break
				}
				if maxOps > 0 && taken.Add(1) > int64(maxOps) {
					break
				}
				i := int(l.next.Add(1)) - 1
				if i >= len(l.ops) {
					drained.Store(true)
					break
				}
				o := &l.ops[i]
				if skip != nil && skip(o) {
					continue
				}
				t0 := time.Now()
				out := exec(ctx, i, o)
				mine = append(mine, record{op: i, kind: o.kind, window: window, lat: time.Since(t0), out: out})
			}
			mu.Lock()
			all = append(all, mine...)
			mu.Unlock()
		}()
	}
	wg.Wait()
	elapsed := time.Since(start)
	if drained.Load() {
		return all, elapsed, fmt.Errorf("op sequence (%d ops) exhausted in window %s", len(l.ops), window)
	}
	return all, elapsed, nil
}
