package main

import (
	"bytes"
	"cmp"
	"encoding/json"
	"fmt"
	"io"
	"maps"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"slices"
	"sync"
	"time"

	"repro/internal/client"
	"repro/internal/engine"
	"repro/internal/server"
	"repro/internal/shardbank"
	"repro/internal/wal"
	"repro/internal/wire"
)

// The traced run replays tracedRequests requests of a workload's shape, one
// at a time, through an in-process stack assembled from public constructors,
// and records a span at every layer boundary this program can stand on:
// around the whole request (the root), around the wire.Sink the wire server
// calls (Store.Apply or Node.Ingest), around the http.Handler. The WAL and
// the engine sit inside Store.Apply behind no interface, so their time is
// measured on twin instances fed the same batch right after the request and
// recorded as spans marked shadow. Spans live in memory and are written to
// bench-out/trace-<workload>.json at the end. Spans inside counterd itself
// are a later change (ROADMAP item 5).
const tracedRequests = 2000

type span struct {
	ID      int    `json:"id"`
	Parent  int    `json:"parent"` // 0: a root
	Request int    `json:"request"`
	Name    string `json:"name"`
	StartNS int64  `json:"start_ns"` // since the trace began
	EndNS   int64  `json:"end_ns"`
	Shadow  bool   `json:"shadow,omitempty"` // timed on a twin instance, placed inside its parent
}

// tracer collects spans. Requests are replayed one at a time, so "the
// request in flight" is one value and a server-side span finds its parent
// there without anything travelling on the wire.
type tracer struct {
	mu    sync.Mutex
	t0    time.Time
	spans []span
	reqN  int
	root  int       // ID of the in-flight request's root span
	seen  []applied // server-side writes of the in-flight request
}

func (t *tracer) now() int64 { return int64(time.Since(t.t0)) }

// add records a finished span and returns its ID.
func (t *tracer) add(parent int, name string, start, end int64, shadow bool) int {
	t.mu.Lock()
	defer t.mu.Unlock()
	id := len(t.spans) + 1
	t.spans = append(t.spans, span{id, parent, t.reqN, name, start, end, shadow})
	return id
}

// request runs do as one request under a new root span, named by what do
// returns, and hands back the server-side writes it caused.
func (t *tracer) request(do func() string) []applied {
	t.mu.Lock()
	t.reqN++
	id := len(t.spans) + 1
	t.spans = append(t.spans, span{ID: id, Request: t.reqN, StartNS: t.now()})
	t.root, t.seen = id, nil
	t.mu.Unlock()
	name := do()
	end := t.now()
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans[id-1].Name, t.spans[id-1].EndNS = name, end
	return t.seen
}

// serverSide records an interposed server-side span under the in-flight
// root; keys, when not nil, are what the twins must repeat under it.
func (t *tracer) serverSide(name string, start int64, keys []int) {
	end := t.now()
	t.mu.Lock()
	defer t.mu.Unlock()
	id := len(t.spans) + 1
	t.spans = append(t.spans, span{id, t.root, t.reqN, name, start, end, false})
	if keys != nil {
		t.seen = append(t.seen, applied{id, keys})
	}
}

// twins are the stand-ins for what has no interface to interpose on.
type twins struct {
	st  *server.Store // for stacks whose Store.Apply is itself out of reach
	log *wal.Log
	eng engine.Engine
}

// applied is one server-side write the twins must repeat.
type applied struct {
	parent int // the interposed span the shadow spans go under
	keys   []int
}

// shadow times keys on the twins and places the results inside the parent
// span: a shadow Store.Apply first when the real one was out of reach, then
// the WAL append and the engine apply end to end from the parent's start.
func (t *tracer) shadow(tw *twins, a applied) {
	t.mu.Lock()
	at := t.spans[a.parent-1].StartNS
	t.mu.Unlock()
	parent := a.parent
	if tw.st != nil {
		t0 := time.Now()
		must(tw.st.Apply(a.keys))
		parent = t.add(parent, "server.Store.Apply", at, at+int64(time.Since(t0)), true)
	}
	t0 := time.Now()
	must(tw.log.AppendBatch(a.keys))
	d := int64(time.Since(t0))
	t.add(parent, "wal.Log.AppendBatch", at, at+d, true)
	t0 = time.Now()
	tw.eng.ApplyBatch(a.keys)
	t.add(parent, "engine.ApplyBatch", at+d, at+d+int64(time.Since(t0)), true)
}

// recSink records a span around every batch the wire server hands down.
type recSink struct {
	wire.Sink
	name string
	t    *tracer
}

func (s recSink) Batch(keys []int) (int, error) {
	start := s.t.now()
	n, err := s.Sink.Batch(keys)
	s.t.serverSide(s.name, start, append([]int(nil), keys...)) // the server reuses its decode buffer
	return n, err
}

// recHandler records a span around every HTTP request. For POST /v1/inc it
// also keeps the keys, which the shadow Store.Apply needs.
type recHandler struct {
	http.Handler
	t *tracer
}

func (h recHandler) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	var keys []int
	if r.Method == http.MethodPost {
		body, _ := io.ReadAll(r.Body) // a short read fails in the handler below
		var req struct {
			Keys []int `json:"keys"`
		}
		_ = json.Unmarshal(body, &req) // likewise
		keys = req.Keys
		r.Body = io.NopCloser(bytes.NewReader(body))
	}
	start := h.t.now()
	h.Handler.ServeHTTP(w, r)
	h.t.serverSide("server.Handler "+r.Method, start, keys)
}

type storeSink struct{ st *server.Store }

func (s storeSink) Batch(keys []int) (int, error) { return len(keys), s.st.Apply(keys) }
func (s storeSink) Repl(keys []int) (int, error)  { return s.Batch(keys) }

func serveHTTP(h http.Handler) (base string, stop func()) {
	ln := must1(net.Listen("tcp", "127.0.0.1:0"))
	srv := &http.Server{Handler: h}
	done := make(chan struct{})
	go func() {
		defer close(done)
		_ = srv.Serve(ln) // ErrServerClosed after Close
	}()
	return "http://" + ln.Addr().String(), func() { srv.Close(); <-done }
}

// stack is one workload's in-process replica: do sends request i and
// returns the name of its root span, stop tears everything down.
type stack struct {
	do   func(i int) string
	tw   *twins
	stop func()
}

// buildStack assembles the workload's shape. With t nil nothing is
// interposed: that is the untraced pass tracing overhead is measured against.
func (lr *layerRun) buildStack(sp spec, seed uint64, t *tracer, tag string) *stack {
	pl := genPool(sp, seed)
	s := &stack{}
	var stops []func()
	s.stop = func() {
		for i := len(stops) - 1; i >= 0; i-- {
			stops[i]()
		}
	}
	sink := func(inner wire.Sink, name string) wire.Sink {
		if t == nil {
			return inner
		}
		return recSink{inner, name, t}
	}
	handler := func(inner http.Handler) http.Handler {
		if t == nil {
			return inner
		}
		return recHandler{inner, t}
	}
	hc := &http.Client{Transport: &http.Transport{}}
	stops = append(stops, hc.CloseIdleConnections)

	policy := wal.SyncInterval
	if sp.transport == "http" {
		policy = wal.SyncAlways
	}
	cfg := server.Config{Sync: policy}
	newEngine := func() engine.Engine { return engine.NewBank(shardbank.New(sp.n, lr.alg, 256, 42)) }
	if sp.window != "" {
		cfg.Engine, cfg.Buckets, cfg.BucketDur = "window", 8, 2*time.Second
		newEngine = func() engine.Engine {
			return must1(engine.NewWindow(sp.n, lr.alg, layerParts, 8, int64(2*time.Second), 42))
		}
	}
	if t != nil {
		s.tw = &twins{
			log: must1(wal.Open(lr.tempDir(tag+"-twin-wal"), wal.Options{Policy: policy})),
			eng: newEngine(),
		}
		stops = append(stops, func() { s.tw.log.Close() })
	}

	if sp.nodes > 1 {
		nodes := lr.startRing(tag, func(i int, inner wire.Sink) wire.Sink { return sink(inner, "cluster.Node.Ingest") })
		stops = append(stops, func() { stopRing(nodes) })
		if t != nil {
			s.tw.st = must1(server.Open(server.Config{
				Dir: lr.tempDir(tag + "-twin-store"), N: sp.n, Shards: 256, Alg: lr.alg, Seed: 42, Partitions: layerParts, Sync: policy,
			}))
			stops = append(stops, func() { s.tw.st.Close(false) })
		}
		c := must1(client.New(client.Config{
			Seeds: []string{nodes[0].base, nodes[1].base, nodes[2].base}, BatchSize: sp.batch, Transport: client.TransportWire,
		}))
		stops = append(stops, func() { c.Close() })
		s.do = func(i int) string {
			must(c.IncBatch(pl.keys[i%len(pl.keys)]))
			must(c.Flush())
			return "request client.IncBatch+Flush"
		}
		return s
	}

	st := lr.openStore(tag+"-store", cfg)
	stops = append(stops, func() { st.Close(false) })
	var conn *wire.Conn
	if sp.wire {
		addr, stop := serveWire(sink(storeSink{st}, "server.Store.Apply"), sp.n)
		stops = append(stops, stop)
		conn = must1(wire.Dial(addr, 10*time.Second))
		stops = append(stops, func() { conn.Close() })
	}
	base, stop := serveHTTP(handler(server.Handler(st)))
	stops = append(stops, stop)
	if t != nil && sp.transport == "http" {
		s.tw.st = lr.openStore(tag+"-twin-store", cfg)
		stops = append(stops, func() { s.tw.st.Close(false) })
	}
	get := func(url string) {
		resp := must1(hc.Get(url))
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
	}
	s.do = func(i int) string {
		switch {
		case sp.readerBeside && i%2 == 1 && i%20 == 19:
			get(base + "/v1/topk?k=10&window=" + sp.window)
			return "request GET topk"
		case sp.readerBeside && i%2 == 1:
			get(fmt.Sprintf("%s/v1/estimate/%d?window=%s", base, i%hotKeys, sp.window))
			return "request GET estimate"
		case sp.transport == "http":
			resp := must1(hc.Post(base+"/v1/inc", "application/json", bytes.NewReader(pl.bodies[i%len(pl.bodies)])))
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			return "request POST inc"
		default:
			must1(conn.SendBatch(pl.keys[i%len(pl.keys)]))
			return "request wire.SendBatch"
		}
	}
	return s
}

// traceSummary is what a trace says per span name, and whether it adds up.
type traceSummary struct {
	SelfMS       map[string]float64 `json:"self_ms"`        // total self time per span name
	RootMS       float64            `json:"root_ms"`        // total duration of the roots
	SelfOverRoot float64            `json:"self_over_root"` // Σ self ÷ Σ root; 1 when every child fits its parent
	Orphans      int                `json:"orphans"`        // spans whose parent is not in the trace
	UntracedMS   float64            `json:"untraced_ms"`    // the same requests with nothing interposed
	OverheadPct  float64            `json:"trace_overhead_pct"`
}

// summarize computes self times: a span's duration minus its children's,
// never below zero (a shadow child measured on a twin can outlast the real
// parent it is placed in).
func summarize(spans []span) traceSummary {
	sum := traceSummary{SelfMS: map[string]float64{}}
	children := make(map[int]int64)
	for _, s := range spans {
		if s.Parent == 0 {
			sum.RootMS += float64(s.EndNS-s.StartNS) / 1e6
		} else if s.Parent < 1 || s.Parent > len(spans) {
			sum.Orphans++
		} else {
			children[s.Parent] += s.EndNS - s.StartNS
		}
	}
	total := 0.0
	for _, s := range spans {
		self := float64(max(0, s.EndNS-s.StartNS-children[s.ID])) / 1e6
		name := s.Name
		if s.Shadow {
			name += " (shadow)"
		}
		sum.SelfMS[name] += self
		total += self
	}
	sum.SelfOverRoot = total / sum.RootMS
	return sum
}

// traceWorkload replays one workload's shape untraced, then traced, and
// writes the span file.
func (lr *layerRun) traceWorkload(e *env, sp spec, seed uint64) (traceSummary, error) {
	plain := lr.buildStack(sp, seed, nil, sp.name+"-plain")
	for i := 0; i < tracedRequests/10; i++ { // connections dialed, registers warm
		plain.do(i)
	}
	t0 := time.Now()
	for i := 0; i < tracedRequests; i++ {
		plain.do(i)
	}
	untraced := time.Since(t0)
	plain.stop()

	t := &tracer{t0: time.Now()}
	st := lr.buildStack(sp, seed, t, sp.name+"-traced")
	defer st.stop()
	for i := 0; i < tracedRequests/10; i++ {
		st.do(i)
	}
	t.spans, t.reqN, t.root = nil, 0, 0
	for i := 0; i < tracedRequests; i++ {
		for _, a := range t.request(func() string { return st.do(i) }) {
			t.shadow(st.tw, a)
		}
	}
	sum := summarize(t.spans)
	sum.UntracedMS = float64(untraced) / 1e6
	sum.OverheadPct = 100 * (sum.RootMS - sum.UntracedMS) / sum.UntracedMS

	doc := struct {
		Workload string       `json:"workload"`
		Seed     uint64       `json:"seed"`
		Summary  traceSummary `json:"summary"`
		Spans    []span       `json:"spans"`
	}{sp.name, seed, sum, t.spans}
	b, err := json.Marshal(doc)
	if err != nil {
		return sum, err
	}
	path := filepath.Join(e.outDir, "trace-"+sp.name+".json")
	if err := os.WriteFile(path, b, 0o644); err != nil {
		return sum, err
	}
	fmt.Printf("\n== trace %s: %d spans of %d requests → %s\n", sp.name, len(t.spans), tracedRequests, path)
	names := slices.SortedFunc(maps.Keys(sum.SelfMS), func(a, b string) int { return cmp.Compare(sum.SelfMS[b], sum.SelfMS[a]) })
	for _, n := range names {
		fmt.Printf("  %-38s self %9.2f ms  %5.1f %% of roots\n", n, sum.SelfMS[n], 100*sum.SelfMS[n]/sum.RootMS)
	}
	fmt.Printf("  Σ self ÷ Σ root %.3f   orphans %d   untraced %.1f ms, traced %.1f ms: trace_overhead_pct %.1f\n",
		sum.SelfOverRoot, sum.Orphans, sum.UntracedMS, sum.RootMS, sum.OverheadPct)
	return sum, nil
}

// runTrace is the -trace mode: every per-layer metric, then a traced replay
// of each selected workload.
func runTrace(e *env, o *options) (code int) {
	lr := newLayerRun(e, o.seed, o.seconds)
	defer func() {
		if r := recover(); r != nil {
			fmt.Fprintf(os.Stderr, "%v\n", r)
			code = 2
		}
	}()
	lr.runLayers(o.seed)
	overhead := 0.0
	for _, sp := range o.selected() {
		sum, err := lr.traceWorkload(e, sp, o.seed)
		if err != nil {
			fmt.Fprintf(os.Stderr, "bench: trace %s: %v\n", sp.name, err)
			return 2
		}
		if sum.Orphans > 0 {
			fmt.Fprintf(os.Stderr, "bench: trace %s: %d spans without a parent in the trace\n", sp.name, sum.Orphans)
			code = 1
		}
		overhead = max(overhead, sum.OverheadPct)
	}
	lr.put("trace.overhead_pct", "%", overhead)
	for _, m := range layerMetrics {
		if _, ok := lr.out[m.Name]; !ok {
			fmt.Fprintf(os.Stderr, "bench: per-layer metric %s was not measured\n", m.Name)
			code = 2
		}
	}

	fmt.Printf("\n== per-layer metrics  seed %d\n", o.seed)
	for _, m := range layerMetrics {
		fmt.Printf("  %-44s %16.4f %-5s → %s\n", m.Name, lr.out[m.Name].Value, m.Unit, m.moves)
	}
	b, _ := json.Marshal(lastLine{Correct: code == 0, Attempted: tracedRequests * len(o.selected()), Metrics: lr.out}) // plain numbers and strings
	fmt.Printf("\n%s\n", b)
	return code
}
