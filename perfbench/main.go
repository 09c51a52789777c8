// Command perfbench is the serving benchmark: it drives the real /v1/query,
// POST /v1/points and DELETE /v1/points/{id} stack (server.New with
// prqserved's default configuration on a loopback listener) in a closed
// loop, checks every answer against an in-process oracle and every
// acknowledged write against a wal replay, and prints the end-to-end metrics
// (--trace 0) or the per-layer ledger of a traced run (--trace 1). The last
// line of standard output is one JSON object. See README.md.
//
//	bash perfbench/run.sh --workload paper-g10 --seed 1 --seconds 10 --trace 0
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"gaussrange"
)

// config is one benchmark run.
type config struct {
	root     string // checkout root; files are written under root/.bench_build
	workload string
	seed     uint64
	seconds  float64
	trace    bool
	points   int // dataset size; 0 = the full LongBeach stand-in (the self-test thins it)
	setups   int // set-ups timed for setup_s; the first one is kept and measured
	clients  int // closed-loop callers, one connection each

	// Planted faults, for the self-test: corrupt one answer, or acknowledge
	// a write the server never received.
	plantWrongAnswer bool
	plantLostWrite   bool
}

// reconcileTolerance bounds |Σ layer self time − Σ traced wall| / Σ traced
// wall in the traced run.
const reconcileTolerance = 0.01

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	var (
		cfg   config
		trace int
	)
	flag.StringVar(&cfg.root, "root", ".", "checkout root (build outputs and wal go under ROOT/.bench_build)")
	flag.StringVar(&cfg.workload, "workload", "paper-g10", "workload: paper-g10, track-fresh or live-rw")
	flag.Uint64Var(&cfg.seed, "seed", 1, "traffic seed")
	flag.Float64Var(&cfg.seconds, "seconds", 10, "measured seconds per run")
	flag.IntVar(&trace, "trace", 0, "1 = traced run reporting per-layer metrics")
	flag.Parse()
	cfg.trace = trace == 1
	cfg.setups = 9
	cfg.clients = 2

	res, err := run(cfg, os.Stdout)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
}

// run performs one benchmark run, writing human-readable lines to out.
func run(cfg config, out io.Writer) (*result, error) {
	if !slices.Contains(workloadNames, cfg.workload) {
		return nil, fmt.Errorf("unknown workload %q (want one of %v)", cfg.workload, workloadNames)
	}
	if cfg.seconds <= 0 || cfg.setups < 1 || cfg.clients < 1 {
		return nil, errors.New("seconds, set-ups and clients must be positive")
	}
	work := filepath.Join(cfg.root, ".bench_build")
	if err := os.MkdirAll(work, 0o755); err != nil {
		return nil, err
	}
	pts := basePoints(cfg.points)
	ops, err := generate(cfg.workload, cfg.seed, pts, 2000+int(cfg.seconds*4000))
	if err != nil {
		return nil, err
	}
	walDir := ""
	if cfg.workload == "live-rw" {
		walDir = filepath.Join(work, fmt.Sprintf("wal-%s-%d", cfg.workload, os.Getpid()))
		defer os.RemoveAll(walDir)
	}

	// Set-up, timed several times. The first stack is the one measured: its
	// heap growth is the DB and server's memory, taken before any other
	// stack exists. The others are timed on their own wal directories and
	// closed.
	before := heapBytes()
	t0 := time.Now()
	st, err := newStack(pts, walDir)
	if err != nil {
		return nil, err
	}
	setupS := []float64{time.Since(t0).Seconds()}
	memMB := float64(int64(heapBytes())-int64(before)) / (1 << 20)
	closed := false
	defer func() {
		if !closed {
			st.close()
		}
	}()
	for i := 1; i < cfg.setups; i++ {
		dir := ""
		if walDir != "" {
			dir = fmt.Sprintf("%s-setup%d", walDir, i)
		}
		t0 := time.Now()
		s, err := newStack(pts, dir)
		if err != nil {
			return nil, err
		}
		setupS = append(setupS, time.Since(t0).Seconds())
		err = s.close()
		if dir != "" {
			os.RemoveAll(dir)
		}
		if err != nil {
			return nil, err
		}
	}

	lp := &loop{ops: ops, next: new(atomic.Int64), clients: cfg.clients}
	hc := newHTTPClient(cfg.clients)
	defer hc.CloseIdleConnections()
	cl := newClient(st.url, hc)
	warm, _, err := lp.run("warmup", httpExec(cl), 0, 10*cfg.clients, nil)
	if err != nil {
		return nil, err
	}

	// Timed window over the real server: the whole run untraced, the first
	// 40% when tracing.
	untracedShare := 1.0
	if cfg.trace {
		untracedShare = 0.4
	}
	w0, _ := st.db.WALStats()
	h0, m0 := st.db.PlanCacheStats()
	sched0 := schedLatencies()
	cpu0 := cpuSeconds()
	timed, elapsed, err := lp.run("timed", httpExec(cl), seconds(cfg.seconds*untracedShare), 0, nil)
	if err != nil {
		return nil, err
	}
	sched1 := schedLatencies()
	cpu1 := cpuSeconds()
	h1, m1 := st.db.PlanCacheStats()
	w1, _ := st.db.WALStats()

	var (
		direct, traced []record
		handlerNS      []int64
		th             *tracedHandler
		tr             *tracer
	)
	if cfg.trace {
		// Real handler, no socket: queries only.
		var mu sync.Mutex
		direct, _, err = lp.run("direct", directExec(st.srv.Handler(), &handlerNS, &mu),
			seconds(cfg.seconds*0.2), 0, func(o *op) bool { return o.kind != opQuery })
		if err != nil {
			return nil, err
		}
		// Traced pipeline over loopback, continuing the sequence.
		tr = newTracer()
		th, err = newTracedHandler(st.db, pts, ackedWriteGroups(ops, ptrs(warm, timed)), tr)
		if err != nil {
			return nil, err
		}
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return nil, err
		}
		ths := &http.Server{Handler: th, ReadHeaderTimeout: 10 * time.Second}
		served := make(chan error, 1)
		go func() { served <- ths.Serve(ln) }()
		thc := newHTTPClient(cfg.clients)
		traced, _, err = lp.run("traced", tracedExec("http://"+ln.Addr().String(), thc, tr), seconds(cfg.seconds*0.4), 0, nil)
		ths.Close()
		<-served
		thc.CloseIdleConnections()
		if err != nil {
			return nil, err
		}
	}
	hc.CloseIdleConnections()
	closed = true
	if err := st.close(); err != nil {
		return nil, err
	}

	all := ptrs(warm, timed, direct, traced)
	if cfg.plantWrongAnswer {
		for _, r := range all {
			if r.kind == opQuery && r.out.err == "" && r.window == "timed" {
				r.out.ids = append(slices.Clone(r.out.ids), math.MaxInt32)
				break
			}
		}
	}
	if cfg.plantLostWrite {
		// Acknowledge an insert the server never saw, at an epoch no query
		// pinned, so only the durability check can notice it.
		var lastEpoch uint64
		maxID := int64(len(pts))
		for _, r := range all {
			lastEpoch = max(lastEpoch, r.out.epoch)
			if r.kind == opInsert {
				for _, id := range r.out.ids {
					maxID = max(maxID, id+1)
				}
			}
		}
		ops = append(ops, op{kind: opInsert, pts: [][]float64{{500, 500}}})
		all = append(all, &record{op: len(ops) - 1, kind: opInsert, window: "timed",
			out: outcome{status: http.StatusOK, ids: []int64{maxID}, epoch: lastEpoch + 1}})
	}

	wrong, err := checkAnswers(pts, ops, all, runtime.GOMAXPROCS(0))
	if err != nil {
		return nil, err
	}
	lost := 0
	if walDir != "" {
		if lost, err = checkDurable(pts, walDir, ops, all); err != nil {
			return nil, err
		}
	}

	measured := map[string]bool{"timed": true, "direct": true, "traced": true}
	res := &result{Correct: wrong == 0 && lost == 0, Metrics: map[string]metric{}}
	var qLat, wLat []float64
	okQueries, rejected := 0, 0
	inserted, deleted := 0, 0 // acknowledged in the timed window: the overlay entries written
	for _, r := range all {
		if r.out.status == http.StatusTooManyRequests {
			rejected++
		}
		if !measured[r.window] {
			continue
		}
		res.Attempted++
		if !r.ok() {
			res.Failed++
		}
		if r.window != "timed" || !r.ok() {
			continue
		}
		ms := float64(r.lat.Nanoseconds()) / 1e6
		switch r.kind {
		case opQuery:
			qLat = append(qLat, ms)
			okQueries++
		case opInsert:
			wLat = append(wLat, ms)
			inserted += len(ops[r.op].pts)
		case opDelete:
			wLat = append(wLat, ms)
			deleted++
		}
	}
	if res.Attempted == 0 || len(qLat) == 0 {
		return nil, errors.New("no query completed in the timed window")
	}
	failFrac := float64(res.Failed) / float64(res.Attempted)

	fmt.Fprintf(out, "perfbench %s seed=%d points=%d clients=%d trace=%v: %d ops attempted, %d failed (%d wrong answers, %d lost writes, %d rejected with 429)\n",
		cfg.workload, cfg.seed, len(pts), cfg.clients, cfg.trace, res.Attempted, res.Failed, wrong, lost, rejected)
	fmt.Fprintf(out, "  fail_frac %.6f (reported as ok_frac = 1 - fail_frac)\n", failFrac)
	fmt.Fprintf(out, "  timed window %.2fs: %d queries (p50 %.3f ms, p99 %.3f ms), %d writes (p50 %.3f ms, p99 %.3f ms)\n",
		elapsed.Seconds(), len(qLat), quantile(qLat, 0.5), quantile(qLat, 0.99), len(wLat), quantile(wLat, 0.5), quantile(wLat, 0.99))
	cpuPerOp := (cpu1 - cpu0) * 1e3 / float64(len(timed))
	cpuBusy := (cpu1 - cpu0) / elapsed.Seconds()
	fmt.Fprintf(out, "  process CPU %.3f ms per op, %.2f CPUs busy of %d\n", cpuPerOp, cpuBusy, runtime.GOMAXPROCS(0))
	fmt.Fprintf(out, "  runtime.sched_wait p50 %.1f us, p99 %.1f us (time runnable but not running, whole process)\n",
		histDeltaQuantile(sched0, sched1, 0.5), histDeltaQuantile(sched0, sched1, 0.99))
	fmt.Fprintf(out, "  set-ups %v s (median reported); heap kept by DB and server %.1f MiB\n", roundAll(setupS), memMB)
	if walDir != "" {
		fmt.Fprintf(out, "  wal on %s (fsync on; the OS page cache survives the durability check: not a power-loss test), %d groups, %d bytes appended\n",
			fsName(filepath.Dir(walDir)), w1.Batcher.Groups-w0.Batcher.Groups, w1.Store.AppendedBytes-w0.Store.AppendedBytes)
		fmt.Fprintf(out, "  overlay entries written in the timed window: %d (a fold every %d)\n",
			inserted+deleted, foldThreshold(st.db.Len()))
	}

	if !cfg.trace {
		res.Metrics["query_p50_ms"] = metric{quantile(qLat, 0.5), "ms"}
		res.Metrics["query_p99_ms"] = metric{quantile(qLat, 0.99), "ms"}
		res.Metrics["query_qps"] = metric{float64(okQueries) / elapsed.Seconds(), "1/s"}
		res.Metrics["ok_frac"] = metric{1 - failFrac, "ratio"}
		res.Metrics["setup_s"] = metric{median(setupS), "s"}
		res.Metrics["mem_mb"] = metric{memMB, "MiB"}
		return res, nil
	}

	// ---- traced run: the per-layer ledger ----
	if f := th.failure.Load(); f != nil {
		res.Correct = false
		fmt.Fprintf(out, "  traced pipeline inconsistency: %v\n", f)
	}
	kinds := map[int32]opKind{}
	for _, r := range traced {
		kinds[int32(r.op)] = r.kind
	}
	lg := buildLedger(tr, kinds)
	var selfSum int64
	for _, l := range layers {
		selfSum += lg.selfNS[l]
	}
	selfRatio := ratio(float64(selfSum), float64(lg.wallNS))
	if math.Abs(selfRatio-1) > reconcileTolerance {
		res.Correct = false
		fmt.Fprintf(out, "  layer self times sum to %.4f of the traced wall (tolerance %.2f)\n", selfRatio, reconcileTolerance)
	}
	if err := os.MkdirAll(filepath.Join(work, "trace"), 0o755); err != nil {
		return nil, err
	}
	spanFile := filepath.Join(work, "trace", cfg.workload+".tsv.gz")
	if err := writeSpans(tr, spanFile); err != nil {
		return nil, err
	}

	// Counts from the real server's responses in the untraced window.
	var retrieved, nodes, overlay, integ float64
	for _, r := range timed {
		if r.kind == opQuery && r.out.err == "" {
			retrieved += float64(r.out.stats.Retrieved)
			nodes += float64(r.out.stats.NodesRead)
			overlay += float64(r.out.stats.OverlayScanned)
			integ += float64(r.out.stats.Integrations)
		}
	}
	compileUS, err := compileMicros(pts, ops)
	if err != nil {
		return nil, err
	}
	nq := float64(okQueries)
	subs := float64(w1.Batcher.Submissions - w0.Batcher.Submissions)
	var tracedQ []float64
	for _, ns := range lg.clientQueryNS {
		tracedQ = append(tracedQ, float64(ns)/1e6)
	}
	handlerUS := nsQuantile(handlerNS, 0.5, 1e3)
	perOp := func(layer string) float64 { return ratio(float64(lg.selfNS[layer])/1e3, float64(lg.requests)) }
	var qualSum int64
	for _, ns := range lg.qualNS {
		qualSum += ns
	}
	m := map[string]metric{
		"server.decode_us":               {nsQuantile(lg.decodeNS, 0.5, 1e3), "us"},
		"server.encode_us":               {nsQuantile(lg.encodeNS, 0.5, 1e3), "us"},
		"server.handler_us":              {handlerUS, "us"},
		"server.wire_us":                 {nsQuantile(lg.wireNS, 0.5, 1e3), "us"},
		"server.rejected":                {float64(rejected), "count"},
		"runtime.sched_wait_p50_us":      {histDeltaQuantile(sched0, sched1, 0.5), "us"},
		"runtime.sched_wait_p99_us":      {histDeltaQuantile(sched0, sched1, 0.99), "us"},
		"runtime.cpu_busy":               {cpuBusy, "cpus"},
		"plan.hit_ratio":                 {ratio(float64(h1-h0), float64(h1-h0+m1-m0)), "ratio"},
		"plan.compile_us":                {compileUS, "us"},
		"core.front_us":                  {nsQuantile(lg.frontNS, 0.5, 1e3), "us"},
		"core.retrieved_per_query":       {ratio(retrieved, nq), "count"},
		"core.nodes_read_per_query":      {ratio(nodes, nq), "count"},
		"core.overlay_scanned_per_query": {ratio(overlay, nq), "count"},
		"core.integrations_per_query":    {ratio(integ, nq), "count"},
		"quadform.calls_per_query":       {ratio(float64(len(lg.qualNS)), float64(lg.queries)), "count"},
		"quadform.call_us":               {nsQuantile(lg.qualNS, 0.5, 1e3), "us"},
		"quadform.busy_share":            {ratio(float64(qualSum), float64(lg.wallNS)), "ratio"},
		"quadform.near_theta_share":      {ratio(float64(lg.nearTheta), float64(len(lg.qualNS))), "ratio"},
		"core.apply_us":                  {nsQuantile(lg.applyNS, 0.5, 1e3), "us"},
		"core.apply_max_ms":              {nsQuantile(lg.applyNS, 1, 1e6), "ms"},
		"wal.groups_per_write":           {ratio(float64(w1.Batcher.Groups-w0.Batcher.Groups), float64(len(wLat))), "count"},
		"wal.queue_us":                   {ratio(float64(w1.Batcher.QueueNanos-w0.Batcher.QueueNanos)/1e3, subs), "us"},
		"wal.flush_us":                   {ratio(float64(w1.Batcher.FlushNanos-w0.Batcher.FlushNanos)/1e3, subs), "us"},
		"wal.bytes_per_point":            {ratio(float64(w1.Store.AppendedBytes-w0.Store.AppendedBytes), float64(inserted+deleted)), "B"},
		"write_p50_ms":                   {quantile(wLat, 0.5), "ms"},
		"write_p99_ms":                   {quantile(wLat, 0.99), "ms"},
		"fail_frac":                      {failFrac, "ratio"},
		"trace.overhead_p50_ms":          {quantile(tracedQ, 0.5) - quantile(qLat, 0.5), "ms"},
		"trace.self_sum_ratio":           {selfRatio, "ratio"},
		"self.wire_us_per_op":            {perOp("client"), "us"},
		"self.server_us_per_op":          {perOp("server"), "us"},
		"self.gaussrange_us_per_op":      {perOp("gaussrange"), "us"},
		"self.core_us_per_op":            {perOp("core"), "us"},
		"self.quadform_us_per_op":        {perOp("quadform"), "us"},
		"self.wal_us_per_op":             {perOp("wal"), "us"},
		"self.bench_us_per_op":           {perOp("bench"), "us"},
	}
	res.Metrics = m
	fmt.Fprintf(out, "  traced window: %d requests (%d queries), layer self times sum to %.4f of the traced wall; spans in %s\n",
		lg.requests, lg.queries, selfRatio, spanFile)
	return res, nil
}

// seconds converts a float second count to a Duration.
func seconds(s float64) time.Duration { return time.Duration(s * float64(time.Second)) }

// ptrs flattens record windows into one slice of pointers.
func ptrs(windows ...[]record) []*record {
	var out []*record
	for _, w := range windows {
		for i := range w {
			out = append(out, &w[i])
		}
	}
	return out
}

func roundAll(xs []float64) []float64 {
	out := make([]float64, len(xs))
	for i, x := range xs {
		out[i] = math.Round(x*1000) / 1000
	}
	return out
}

// foldThreshold mirrors the storage engine's overlay bound: live/4, clamped
// to [128, 4096].
func foldThreshold(live int) int { return min(4096, max(128, live/4)) }

// compileMicros is the median time of DB.PlanRegion on a plan-cache miss,
// over up to 100 of the workload's query specs, on a DB whose cache is off.
func compileMicros(pts [][]float64, ops []op) (float64, error) {
	db, err := gaussrange.Load(pts, gaussrange.WithPlanCacheSize(0))
	if err != nil {
		return 0, err
	}
	var us []float64
	for i := range ops {
		if ops[i].kind != opQuery {
			continue
		}
		spec := ops[i].spec()
		t0 := time.Now()
		if _, _, _, err := db.PlanRegion(spec); err != nil {
			return 0, fmt.Errorf("compiling op %d: %w", i, err)
		}
		us = append(us, float64(time.Since(t0).Nanoseconds())/1e3)
		if len(us) == 100 {
			break
		}
	}
	return median(us), nil
}
