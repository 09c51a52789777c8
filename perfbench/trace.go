package main

import (
	"bufio"
	"bytes"
	"compress/gzip"
	"container/list"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"gaussrange"
	"gaussrange/internal/core"
	"gaussrange/internal/gauss"
	"gaussrange/internal/rtree"
	"gaussrange/internal/vecmat"
	"gaussrange/server"
)

// Span names. The text before the dot is the layer the span's self time is
// billed to; "client" self time is the wire (loopback round trip outside the
// handler), "bench" is work the traced pipeline adds that the real handler
// does not do (keeping the mirror index in step with the DB, and waiting for
// the previous write while writes are serialised).
const (
	spClient    = iota // client.request: send to decoded reply
	spServer           // server.request: the traced handler, end to end
	spDecode           // server.decode: JSON request decode
	spAdmit            // server.admit: admission slot
	spPlan             // gaussrange.plan: fingerprint and plan-cache lookup, rebind on a hit
	spCompile          // core.compile: plan compile on a miss
	spExecute          // core.execute: Plan.ExecuteEval (Phase 1-2 scan, overlay merge, Phase 3)
	spQual             // quadform.qualification: one Phase-3 evaluator call
	spApply            // gaussrange.apply: DB.Apply, wal included
	spWALQueue         // wal.queue: wait for the commit group (from WALStats deltas)
	spWALFlush         // wal.flush: stage, append, fsync, publish (from WALStats deltas)
	spMirror           // bench.mirror_apply: the same batch on the mirror index
	spSerialise        // bench.write_wait: wait for the previous traced write
	spEncode           // server.encode: ResponseFromResult plus JSON encode
	numSpanNames
)

var spanNames = [numSpanNames]string{
	"client.request", "server.request", "server.decode", "server.admit",
	"gaussrange.plan", "core.compile", "core.execute", "quadform.qualification",
	"gaussrange.apply", "wal.queue", "wal.flush", "bench.mirror_apply", "bench.write_wait",
	"server.encode",
}

// layers in report order; each span bills its self time to one of them.
var layers = []string{"client", "server", "gaussrange", "core", "quadform", "wal", "bench"}

func spanLayer(name int) string { return strings.SplitN(spanNames[name], ".", 2)[0] }

// span is one timed interval. parent indexes the request's span list (-1 for
// the request's root); start and end are nanoseconds since the tracer began.
type span struct {
	name       uint8
	parent     int32
	req        int32
	start, end int64
	pr         float64 // quadform spans: the returned probability
}

// tracer keeps every span in memory until the run ends.
type tracer struct {
	t0    time.Time
	mu    sync.Mutex
	spans [][]span // one list per committed request side (client or server)
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

func (t *tracer) now() int64 { return time.Since(t.t0).Nanoseconds() }

// reqTrace collects one request side's spans without locking.
type reqTrace struct {
	t     *tracer
	req   int32
	spans []span
}

func (t *tracer) begin(req int) *reqTrace { return &reqTrace{t: t, req: int32(req)} }

func (r *reqTrace) open(name int, parent int) int {
	r.spans = append(r.spans, span{name: uint8(name), parent: int32(parent), req: r.req, start: r.t.now()})
	return len(r.spans) - 1
}

func (r *reqTrace) close(i int) { r.spans[i].end = r.t.now() }

func (t *tracer) commit(r *reqTrace) {
	t.mu.Lock()
	t.spans = append(t.spans, r.spans)
	t.mu.Unlock()
}

// timedEval wraps the exact evaluator Phase 3 calls through core.Evaluator,
// recording one span per Qualification call.
type timedEval struct {
	inner  core.Evaluator
	rt     *reqTrace
	parent int
}

func (e *timedEval) Qualification(dist *gauss.Dist, o vecmat.Vector, delta float64) (float64, error) {
	i := e.rt.open(spQual, e.parent)
	pr, err := e.inner.Qualification(dist, o, delta)
	e.rt.close(i)
	e.rt.spans[i].pr = pr
	return pr, err
}

// planLRU is the traced pipeline's plan cache: same capacity and key (the
// DB's plan fingerprint) as the DB's own, holding plans compiled against
// the mirror index.
type planLRU struct {
	mu    sync.Mutex
	cap   int
	order *list.List
	items map[string]*list.Element
}

type planEntry struct {
	key  string
	plan *core.Plan
}

func newPlanLRU(n int) *planLRU {
	return &planLRU{cap: n, order: list.New(), items: map[string]*list.Element{}}
}

func (c *planLRU) get(key string) (*core.Plan, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.items[key]; ok {
		c.order.MoveToFront(el)
		return el.Value.(*planEntry).plan, true
	}
	return nil, false
}

func (c *planLRU) put(key string, p *core.Plan) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if _, ok := c.items[key]; ok {
		return
	}
	c.items[key] = c.order.PushFront(&planEntry{key: key, plan: p})
	if c.order.Len() > c.cap {
		last := c.order.Back()
		c.order.Remove(last)
		delete(c.items, last.Value.(*planEntry).key)
	}
}

// tracedHandler rebuilds /v1/query, POST /v1/points and DELETE
// /v1/points/{id} from public functions so each layer can be timed from
// outside: the DB facade keys plans and applies writes (wal included);
// queries compile and execute on a mirror core.Index that receives the same
// write batches in the same epoch order. Writes are serialised so the mirror
// publishes exactly the DB's epochs. The handler supports what the workloads
// send: explicit strategies and no target covariance.
type tracedHandler struct {
	db      *gaussrange.DB
	mirror  *core.Index
	eng     *core.Engine
	plans   *planLRU
	slots   chan struct{}
	writeMu sync.Mutex
	tr      *tracer
	failure atomic.Value // first internal inconsistency, as a string
}

// newTracedHandler builds the mirror from the base points and replays the
// writes acknowledged so far, then checks it matches the DB.
func newTracedHandler(db *gaussrange.DB, pts [][]float64, groups []writeGroup, tr *tracer) (*tracedHandler, error) {
	vecs := make([]vecmat.Vector, len(pts))
	for i, p := range pts {
		vecs[i] = vecmat.Vector(p).Clone()
	}
	mirror, err := core.NewIndex(vecs, db.Dim(), rtree.WithPageSize(rtree.DefaultPageSize))
	if err != nil {
		return nil, err
	}
	for _, g := range groups {
		ins := make([]vecmat.Vector, len(g.inserts))
		for i, p := range g.inserts {
			ins[i] = vecmat.Vector(p)
		}
		if _, _, err := mirror.ApplyWithIDs(ins, g.ids, g.deletes); err != nil {
			return nil, fmt.Errorf("mirror replay of epoch %d: %w", g.epoch, err)
		}
	}
	if mirror.Epoch() != db.Epoch() || mirror.Len() != db.Len() || mirror.Current().MaxID() != db.MaxID() {
		return nil, fmt.Errorf("mirror (epoch %d, %d points) does not match the DB (epoch %d, %d points)",
			mirror.Epoch(), mirror.Len(), db.Epoch(), db.Len())
	}
	eng, err := core.NewEngine(mirror, core.NewExactEvaluator(), core.Options{})
	if err != nil {
		return nil, err
	}
	return &tracedHandler{
		db: db, mirror: mirror, eng: eng, tr: tr,
		plans: newPlanLRU(gaussrange.DefaultPlanCacheSize),
		slots: make(chan struct{}, serverConfig(db).MaxInflight),
	}, nil
}

func (h *tracedHandler) fail(format string, args ...any) {
	h.failure.CompareAndSwap(nil, fmt.Sprintf(format, args...))
}

func (h *tracedHandler) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	req, _ := strconv.Atoi(r.Header.Get("X-Request-Id"))
	rt := h.tr.begin(req)
	root := rt.open(spServer, -1)
	defer func() {
		rt.close(root)
		h.tr.commit(rt)
	}()
	switch {
	case r.Method == http.MethodPost && r.URL.Path == "/v1/query":
		h.query(w, r, rt, root)
	case r.Method == http.MethodPost && r.URL.Path == "/v1/points":
		h.write(w, r, rt, root, opInsert)
	case r.Method == http.MethodDelete && strings.HasPrefix(r.URL.Path, "/v1/points/"):
		h.write(w, r, rt, root, opDelete)
	default:
		http.Error(w, "not served by the traced pipeline", http.StatusNotFound)
	}
}

func (h *tracedHandler) admit(w http.ResponseWriter, rt *reqTrace, root int) bool {
	a := rt.open(spAdmit, root)
	defer rt.close(a)
	select {
	case h.slots <- struct{}{}:
		return true
	default:
		http.Error(w, "server overloaded", http.StatusTooManyRequests)
		return false
	}
}

func (h *tracedHandler) query(w http.ResponseWriter, r *http.Request, rt *reqTrace, root int) {
	d := rt.open(spDecode, root)
	var req server.QueryRequest
	err := json.NewDecoder(r.Body).Decode(&req)
	rt.close(d)
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	if !h.admit(w, rt, root) {
		return
	}
	defer func() { <-h.slots }()

	p := rt.open(spPlan, root)
	plan, err := h.plan(rt, p, req.Spec())
	rt.close(p)
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	x := rt.open(spExecute, root)
	res, err := plan.ExecuteEval(r.Context(), &timedEval{inner: core.NewExactEvaluator(), rt: rt, parent: x})
	rt.close(x)
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	e := rt.open(spEncode, root)
	writeJSON(w, server.ResponseFromResult(libResult(res)))
	rt.close(e)
}

// plan mirrors DB.planFor: key the spec by its fingerprint, rebind a cached
// plan to the new centre, or compile on a miss.
func (h *tracedHandler) plan(rt *reqTrace, parent int, spec gaussrange.QuerySpec) (*core.Plan, error) {
	key, err := h.db.PlanFingerprint(spec)
	if err != nil {
		return nil, err
	}
	if cached, ok := h.plans.get(key); ok {
		dist, err := cached.Dist().WithMean(vecmat.Vector(spec.Center))
		if err != nil {
			return nil, err
		}
		return cached.Rebind(dist)
	}
	c := rt.open(spCompile, parent)
	defer rt.close(c)
	cov, err := vecmat.FromRows(spec.Cov)
	if err != nil {
		return nil, err
	}
	g, err := gauss.New(vecmat.Vector(spec.Center), cov)
	if err != nil {
		return nil, err
	}
	strat, err := core.ParseStrategy(spec.Strategy)
	if err != nil {
		return nil, err
	}
	plan, err := h.eng.Compile(core.Query{Dist: g, Delta: spec.Delta, Theta: spec.Theta}, strat)
	if err != nil {
		return nil, err
	}
	h.plans.put(key, plan)
	return plan, nil
}

func (h *tracedHandler) write(w http.ResponseWriter, r *http.Request, rt *reqTrace, root int, kind opKind) {
	d := rt.open(spDecode, root)
	var (
		ins     [][]float64
		deletes []int64
		err     error
	)
	if kind == opInsert {
		var req server.InsertPointsRequest
		err = json.NewDecoder(r.Body).Decode(&req)
		ins = req.Points
	} else {
		var id int64
		id, err = strconv.ParseInt(strings.TrimPrefix(r.URL.Path, "/v1/points/"), 10, 64)
		deletes = []int64{id}
	}
	rt.close(d)
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	if !h.admit(w, rt, root) {
		return
	}
	defer func() { <-h.slots }()

	lw := rt.open(spSerialise, root)
	h.writeMu.Lock()
	rt.close(lw)
	a := rt.open(spApply, root)
	w0, _ := h.db.WALStats()
	ids, deleted, epoch, err := h.db.Apply(ins, deletes)
	w1, _ := h.db.WALStats()
	rt.close(a)
	if err == nil {
		h.walSpans(rt, a, w0, w1)
		m := rt.open(spMirror, root)
		vecs := make([]vecmat.Vector, len(ins))
		for i, p := range ins {
			vecs[i] = vecmat.Vector(p)
		}
		if ids == nil {
			ids = []int64{}
		}
		_, mEpoch, merr := h.mirror.ApplyWithIDs(vecs, ids, deletes)
		rt.close(m)
		if merr != nil || mEpoch != epoch {
			h.fail("mirror apply: epoch %d vs DB epoch %d: %v", mEpoch, epoch, merr)
		}
	}
	h.writeMu.Unlock()
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	e := rt.open(spEncode, root)
	if kind == opInsert {
		writeJSON(w, server.InsertPointsResponse{IDs: ids, Epoch: epoch})
	} else {
		writeJSON(w, server.DeletePointResponse{ID: deletes[0], Deleted: deleted[0], Epoch: epoch})
	}
	rt.close(e)
}

// walSpans places the wal's queue and flush time for this one submission
// (writes are serialised, so the WALStats deltas are this call's) inside the
// DB.Apply span, in order.
func (h *tracedHandler) walSpans(rt *reqTrace, apply int, w0, w1 gaussrange.WALStats) {
	n := int64(w1.Batcher.Submissions - w0.Batcher.Submissions)
	if n <= 0 {
		return
	}
	a := rt.spans[apply]
	q := (w1.Batcher.QueueNanos - w0.Batcher.QueueNanos) / n
	f := (w1.Batcher.FlushNanos - w0.Batcher.FlushNanos) / n
	qEnd := min(a.start+q, a.end)
	fEnd := min(qEnd+f, a.end)
	rt.spans = append(rt.spans,
		span{name: spWALQueue, parent: int32(apply), req: rt.req, start: a.start, end: qEnd},
		span{name: spWALFlush, parent: int32(apply), req: rt.req, start: qEnd, end: fEnd})
}

func writeJSON(w http.ResponseWriter, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(http.StatusOK)
	json.NewEncoder(w).Encode(v)
}

// libResult converts an engine result to the library form the server encodes.
func libResult(res *core.Result) *gaussrange.Result {
	st := res.Stats
	return &gaussrange.Result{IDs: res.IDs, Epoch: st.Epoch, Stats: gaussrange.Stats{
		Retrieved: st.Retrieved, PrunedFringe: st.PrunedFringe, PrunedOR: st.PrunedOR,
		PrunedBF: st.PrunedBF, AcceptedBF: st.AcceptedBF, Integrations: st.Integrations,
		NodesRead: st.NodesRead, NodesReadPacked: st.NodesReadPacked, OverlayScanned: st.OverlayScanned,
		F32Rechecks: st.F32Rechecks, IndexTime: st.PhaseDurations[0], FilterTime: st.PhaseDurations[1],
		ProbTime: st.PhaseDurations[2],
	}}
}

// tracedExec sends ops to the traced handler over HTTP, tagging each with
// its op index and recording the client-side span.
func tracedExec(base string, hc *http.Client, tr *tracer) execFunc {
	return func(ctx context.Context, reqID int, o *op) outcome {
		var (
			method, path string
			body         any
		)
		switch o.kind {
		case opQuery:
			method, path, body = http.MethodPost, "/v1/query", o.query
		case opInsert:
			method, path, body = http.MethodPost, "/v1/points", server.InsertPointsRequest{Points: o.pts}
		case opDelete:
			method, path = http.MethodDelete, "/v1/points/"+strconv.FormatInt(o.id, 10)
		}
		rt := tr.begin(reqID)
		c := rt.open(spClient, -1)
		out := sendRaw(ctx, hc, method, base+path, reqID, body, o.kind)
		rt.close(c)
		tr.commit(rt)
		return out
	}
}

func sendRaw(ctx context.Context, hc *http.Client, method, url string, reqID int, body any, kind opKind) outcome {
	var rd io.Reader
	if body != nil {
		b, err := json.Marshal(body)
		if err != nil {
			return outcome{err: err.Error()}
		}
		rd = bytes.NewReader(b)
	}
	req, err := http.NewRequestWithContext(ctx, method, url, rd)
	if err != nil {
		return outcome{err: err.Error()}
	}
	req.Header.Set("X-Request-Id", strconv.Itoa(reqID))
	resp, err := hc.Do(req)
	if err != nil {
		return outcome{err: err.Error()}
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return outcome{status: resp.StatusCode, err: err.Error()}
	}
	if resp.StatusCode != http.StatusOK {
		return outcome{status: resp.StatusCode, err: fmt.Sprintf("HTTP %d: %s", resp.StatusCode, bytes.TrimSpace(data))}
	}
	out := outcome{status: resp.StatusCode}
	switch kind {
	case opQuery:
		var r server.QueryResponse
		err = json.Unmarshal(data, &r)
		out.ids, out.epoch, out.stats = r.IDs, r.Epoch, r.Stats
	case opInsert:
		var r server.InsertPointsResponse
		err = json.Unmarshal(data, &r)
		out.ids, out.epoch = r.IDs, r.Epoch
	case opDelete:
		var r server.DeletePointResponse
		err = json.Unmarshal(data, &r)
		out.deleted, out.epoch = r.Deleted, r.Epoch
	}
	if err != nil {
		out.err = err.Error()
	}
	return out
}

// ledger is the traced run's per-request breakdown.
type ledger struct {
	requests      int
	wallNS        int64            // Σ client round trip
	selfNS        map[string]int64 // Σ self time per layer
	decodeNS      []int64          // queries
	encodeNS      []int64          // queries
	frontNS       []int64          // queries: execute minus evaluator calls
	qualNS        []int64          // every evaluator call
	nearTheta     int              // calls whose Pr lies in [θ/3, 3θ]
	queries       int
	applyNS       []int64 // DB.Apply per write
	clientQueryNS []int64 // client round trip per query
	wireNS        []int64 // queries: client round trip minus handler time
}

// buildLedger joins each request's client and server spans and computes
// self times: a span's duration minus the part its children cover.
func buildLedger(tr *tracer, kinds map[int32]opKind) *ledger {
	byReq := map[int32][]span{}
	for _, side := range tr.spans {
		if len(side) == 0 {
			continue
		}
		req := side[0].req
		spans := byReq[req]
		off := int32(len(spans))
		for _, s := range side {
			if s.parent >= 0 {
				s.parent += off
			}
			spans = append(spans, s)
		}
		byReq[req] = spans
	}
	l := &ledger{selfNS: map[string]int64{}}
	for req, spans := range byReq {
		client := -1
		for i, s := range spans {
			if s.name == spClient {
				client = i
			}
		}
		if client < 0 {
			continue // server side of a request whose client never returned
		}
		server := -1
		for i := range spans {
			if spans[i].name == spServer {
				spans[i].parent = int32(client)
				server = i
			}
		}
		child := make([]int64, len(spans))
		for _, s := range spans {
			if s.parent >= 0 {
				p := spans[s.parent]
				child[s.parent] += max(0, min(s.end, p.end)-max(s.start, p.start))
			}
		}
		l.requests++
		l.wallNS += spans[client].end - spans[client].start
		isQuery := kinds[req] == opQuery
		if isQuery {
			l.queries++
			l.clientQueryNS = append(l.clientQueryNS, spans[client].end-spans[client].start)
			if server >= 0 {
				l.wireNS = append(l.wireNS, (spans[client].end-spans[client].start)-(spans[server].end-spans[server].start))
			}
		}
		for i, s := range spans {
			d := s.end - s.start
			l.selfNS[spanLayer(int(s.name))] += max(0, d-child[i])
			switch s.name {
			case spDecode:
				if isQuery {
					l.decodeNS = append(l.decodeNS, d)
				}
			case spEncode:
				if isQuery {
					l.encodeNS = append(l.encodeNS, d)
				}
			case spExecute:
				l.frontNS = append(l.frontNS, d-child[i])
			case spQual:
				l.qualNS = append(l.qualNS, d)
				if s.pr >= paperTheta/3 && s.pr <= 3*paperTheta {
					l.nearTheta++
				}
			case spApply:
				l.applyNS = append(l.applyNS, d)
			}
		}
	}
	return l
}

// writeSpans writes every span as tab-separated text, gzip-compressed:
// request id, span index, parent index, name, start ns, end ns.
func writeSpans(tr *tracer, path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	zw := gzip.NewWriter(f)
	bw := bufio.NewWriter(zw)
	fmt.Fprintln(bw, "req\tspan\tparent\tname\tstart_ns\tend_ns")
	for _, side := range tr.spans {
		for i, s := range side {
			fmt.Fprintf(bw, "%d\t%d\t%d\t%s\t%d\t%d\n", s.req, i, s.parent, spanNames[s.name], s.start, s.end)
		}
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return err
	}
	if err := zw.Close(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
