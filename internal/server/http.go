package server

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"time"

	"repro/internal/engine"
	"repro/internal/metrics"
)

// maxMergeBody caps a POST /v1/merge request body. A MaxRegisters-key snapshot
// compresses far below this; anything larger is abuse.
const maxMergeBody = 1 << 30

// maxIncBody caps a POST /v1/inc request body (a MaxBatch batch of 7-digit
// keys in JSON is ~0.5 MB).
const maxIncBody = 16 << 20

// Handler returns the HTTP API over st. Every endpoint is served under the
// versioned /v1/ prefix only, bar /metrics, which is also served where
// Prometheus scrapes by default. Errors from any endpoint share one
// envelope: {"error": "message", "code": <http status>}.
//
//	POST /v1/inc            {"key": 5} or {"keys": [1, 2, 2, 7]} → {"applied": n}
//	GET  /v1/estimate/{key} → {"key": 5, "estimate": 1234.5}
//	GET  /v1/estimates      → {"estimates": [...]} (all n, key order)
//	GET  /v1/topk?k=10      → {"k":10, "topk":[{"key":3,"estimate":...},...]}
//	                          (1 ≤ k ≤ MaxTopK, else 400; &partition=p scopes
//	                          to one partition — the unit the smart client
//	                          merges cluster-wide)
//
// On a window engine the three read endpoints additionally accept
// &window=5m (a duration, rounded up to whole buckets) or &window=3 (a
// bucket count) to scope the answer to the trailing window; other engines
// reject the parameter with a 400.
//
//	GET  /v1/distinct       → {"engine":"distinct", "estimate": 8412.7}
//	                          (distinct engine only; &partition=p scopes to
//	                          one partition — partitions tile disjoint key
//	                          ranges, so the smart client sums them
//	                          cluster-wide; &window= on the windowed flavor)
//	GET  /v1/f2             → {"engine":"f2", "estimate": 1.2e9} (f2 engine
//	                          only; same &partition= and &window= rules)
//
//	GET  /v1/snapshot       → snapcodec stream (application/octet-stream)
//	GET  /v1/snapshot/{p}   → one partition's snapcodec stream
//	POST /v1/merge          body = a peer snapshot → disjoint-stream join
//	                          (Remark 2.4 / SpaceSaving union)
//	POST /v1/mergemax       body = a peer snapshot → replica max join
//	GET  /v1/healthz        → Stats JSON (liveness: 200 whenever serving)
//	GET  /v1/readyz         → {"ready":true} or 503 (readiness: WAL
//	                          writable; the cluster layer shadows this
//	                          route to add ring-reconciliation)
//	GET  /v1/metrics        → Prometheus text exposition (also /metrics)
//
// Increments and merges are durable (WAL group commit) before the 200
// returns.
func Handler(st *Store) http.Handler {
	mux := http.NewServeMux()
	reg := st.Metrics()
	handle := func(method, path string, h http.HandlerFunc) {
		mux.HandleFunc(method+" /v1"+path, Instrument(reg, path, h))
	}
	handle("POST", "/inc", func(w http.ResponseWriter, r *http.Request) {
		var req struct {
			Key  *int  `json:"key"`
			Keys []int `json:"keys"`
		}
		body := io.LimitReader(r.Body, maxIncBody)
		if err := json.NewDecoder(body).Decode(&req); err != nil {
			httpError(w, http.StatusBadRequest, fmt.Errorf("bad JSON: %w", err))
			return
		}
		keys := req.Keys
		if req.Key != nil {
			keys = append(keys, *req.Key)
		}
		if len(keys) == 0 {
			httpError(w, http.StatusBadRequest, fmt.Errorf(`need "key" or "keys"`))
			return
		}
		if err := st.Apply(keys); err != nil {
			httpError(w, StatusFor(err), err)
			return
		}
		writeJSON(w, map[string]int{"applied": len(keys)})
	})

	handle("GET", "/estimate/{key}", func(w http.ResponseWriter, r *http.Request) {
		key, err := strconv.Atoi(r.PathValue("key"))
		if err != nil {
			httpError(w, http.StatusBadRequest, fmt.Errorf("bad key: %w", err))
			return
		}
		wn, ok := windowParam(w, r, st)
		if !ok {
			return
		}
		est, err := st.Estimate(key, wn)
		if err != nil {
			httpError(w, http.StatusNotFound, err)
			return
		}
		writeJSON(w, withWindow(map[string]any{"key": key, "estimate": est}, wn))
	})

	handle("GET", "/estimates", func(w http.ResponseWriter, r *http.Request) {
		wn, ok := windowParam(w, r, st)
		if !ok {
			return
		}
		ests, err := st.EstimateAll(wn)
		if err != nil {
			httpError(w, StatusFor(err), err)
			return
		}
		writeJSON(w, withWindow(map[string]any{"estimates": ests}, wn))
	})

	handle("GET", "/topk", func(w http.ResponseWriter, r *http.Request) {
		k, err := strconv.Atoi(r.URL.Query().Get("k"))
		if err != nil || k <= 0 {
			httpError(w, http.StatusBadRequest, fmt.Errorf("need a positive integer k"))
			return
		}
		part := -1
		if p := r.URL.Query().Get("partition"); p != "" {
			if part, err = strconv.Atoi(p); err != nil || part < 0 {
				httpError(w, http.StatusBadRequest, fmt.Errorf("bad partition %q", p))
				return
			}
		}
		wn, ok := windowParam(w, r, st)
		if !ok {
			return
		}
		top, err := st.TopK(k, part, wn)
		if err != nil {
			httpError(w, StatusFor(err), err)
			return
		}
		writeJSON(w, withWindow(map[string]any{"k": k, "engine": st.Engine().Kind(), "topk": top}, wn))
	})

	// Scalar range-estimate endpoints: /v1/distinct answers the cardinality of
	// a distinct engine, /v1/f2 the second moment of an f2 engine. The path
	// names the engine kind so a mis-aimed query (asking /v1/distinct of an f2
	// node) is a 400, never a silently wrong number.
	scalarHandler := func(kind string) http.HandlerFunc {
		return func(w http.ResponseWriter, r *http.Request) {
			if st.Engine().Kind() != kind {
				httpError(w, http.StatusBadRequest,
					fmt.Errorf("engine %q serves no /%s queries", st.Engine().Kind(), kind))
				return
			}
			part := -1
			if p := r.URL.Query().Get("partition"); p != "" {
				var err error
				if part, err = strconv.Atoi(p); err != nil || part < 0 {
					httpError(w, http.StatusBadRequest, fmt.Errorf("bad partition %q", p))
					return
				}
			}
			wn, ok := windowParam(w, r, st)
			if !ok {
				return
			}
			est, err := st.RangeEstimate(part, wn)
			if err != nil {
				httpError(w, StatusFor(err), err)
				return
			}
			resp := map[string]any{"engine": kind, "estimate": est}
			if part >= 0 {
				resp["partition"] = part
			}
			writeJSON(w, withWindow(resp, wn))
		}
	}
	handle("GET", "/distinct", scalarHandler(engine.KindDistinct))
	handle("GET", "/f2", scalarHandler(engine.KindF2))

	handle("GET", "/snapshot", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/octet-stream")
		if err := st.SnapshotTo(w); err != nil {
			// Headers are gone; all we can do is cut the stream so the
			// client's CRC check fails loudly.
			panic(http.ErrAbortHandler)
		}
	})

	handle("GET", "/snapshot/{partition}", func(w http.ResponseWriter, r *http.Request) {
		p, err := strconv.Atoi(r.PathValue("partition"))
		if err != nil {
			httpError(w, http.StatusBadRequest, fmt.Errorf("bad partition: %w", err))
			return
		}
		if p < 0 || p >= st.Partitions() {
			httpError(w, http.StatusNotFound,
				fmt.Errorf("partition %d out of [0, %d)", p, st.Partitions()))
			return
		}
		w.Header().Set("Content-Type", "application/octet-stream")
		if err := st.PartitionSnapshotTo(w, p); err != nil {
			panic(http.ErrAbortHandler)
		}
	})

	mergeHandler := func(apply func([]byte) error) http.HandlerFunc {
		return func(w http.ResponseWriter, r *http.Request) {
			blob, err := io.ReadAll(io.LimitReader(r.Body, maxMergeBody+1))
			if err != nil {
				httpError(w, http.StatusBadRequest, fmt.Errorf("read body: %w", err))
				return
			}
			if len(blob) > maxMergeBody {
				httpError(w, http.StatusRequestEntityTooLarge, fmt.Errorf("snapshot exceeds %d bytes", maxMergeBody))
				return
			}
			if err := apply(blob); err != nil {
				httpError(w, StatusFor(err), err)
				return
			}
			writeJSON(w, map[string]any{"merged": true})
		}
	}
	handle("POST", "/merge", mergeHandler(st.Merge))
	handle("POST", "/mergemax", mergeHandler(st.MergeMax))

	// Liveness vs readiness: /v1/healthz answers 200 whenever the process can
	// serve at all (its Stats payload is diagnostic, not a gate); /v1/readyz
	// answers 200 only when the store can durably accept writes. The
	// cluster layer shadows /v1/readyz to add ring-reconciliation — see
	// internal/cluster.Handler and docs/OPERATIONS.md.
	handle("GET", "/healthz", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, st.Stats())
	})
	handle("GET", "/readyz", func(w http.ResponseWriter, r *http.Request) {
		WriteReady(w, st.Ready())
	})
	// Prometheus text exposition of the store's registry.
	expose := Instrument(reg, "/metrics", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		reg.WritePrometheus(w)
	})
	mux.HandleFunc("GET /v1/metrics", expose)
	mux.HandleFunc("GET /metrics", expose)
	return mux
}

// WriteReady renders a readiness verdict: 200 {"ready":true} on nil, 503
// with the unified error envelope plus "ready":false otherwise. Shared by
// the store-level and cluster-shadowed /v1/readyz.
func WriteReady(w http.ResponseWriter, err error) {
	if err == nil {
		writeJSON(w, map[string]any{"ready": true})
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(http.StatusServiceUnavailable)
	json.NewEncoder(w).Encode(map[string]any{
		"ready": false, "error": err.Error(), "code": http.StatusServiceUnavailable,
	})
}

// Instrument wraps h with per-endpoint request metrics on reg:
// counterd_http_request_seconds{endpoint} and
// counterd_http_requests_total{endpoint,code}. endpoint is the route
// pattern, not the raw URL, so cardinality stays bounded. The cluster
// layer reuses it for its /cluster/* routes.
func Instrument(reg *metrics.Registry, endpoint string, h http.HandlerFunc) http.HandlerFunc {
	if reg == nil {
		return h
	}
	lat := reg.HistogramVec("counterd_http_request_seconds",
		"HTTP request latency by route pattern.", metrics.LatencyBuckets, "endpoint").With(endpoint)
	codes := reg.CounterVec("counterd_http_requests_total",
		"HTTP requests by route pattern and status code.", "endpoint", "code")
	return func(w http.ResponseWriter, r *http.Request) {
		t0 := time.Now()
		sw := &statusWriter{ResponseWriter: w, code: http.StatusOK}
		h(sw, r)
		lat.ObserveSince(t0)
		codes.With(endpoint, strconv.Itoa(sw.code)).Inc()
	}
}

// statusWriter records the status code a handler wrote. Flush is
// forwarded; nothing in this API hijacks or pushes.
type statusWriter struct {
	http.ResponseWriter
	code  int
	wrote bool
}

func (w *statusWriter) WriteHeader(code int) {
	if !w.wrote {
		w.code = code
		w.wrote = true
	}
	w.ResponseWriter.WriteHeader(code)
}

func (w *statusWriter) Write(b []byte) (int, error) {
	w.wrote = true
	return w.ResponseWriter.Write(b)
}

func (w *statusWriter) Flush() {
	if f, ok := w.ResponseWriter.(http.Flusher); ok {
		f.Flush()
	}
}

// StatusFor maps store errors to HTTP codes: caller mistakes are 400,
// server faults (a poisoned WAL, a failed fsync) are 500 — a client with
// valid keys must not be told its request was malformed. The wire transport
// uses the same classifier for its ERROR frames, so both transports speak
// one error taxonomy.
func StatusFor(err error) int {
	if errors.Is(err, ErrBadInput) {
		return http.StatusBadRequest
	}
	if errors.Is(err, ErrConflict) {
		// An optimistic delta max-join lost its version race: the caller's
		// block diff is stale, not malformed. 409 tells it to re-diff.
		return http.StatusConflict
	}
	return http.StatusInternalServerError
}

// windowParam resolves a read's ?window= through Store.ParseWindow — 0, no
// window, when the request names none — and answers a bad one itself.
func windowParam(w http.ResponseWriter, r *http.Request, st *Store) (int, bool) {
	q := r.URL.Query().Get("window")
	if q == "" {
		return 0, true
	}
	wn, err := st.ParseWindow(q)
	if err != nil {
		httpError(w, StatusFor(err), err)
		return 0, false
	}
	return wn, true
}

// withWindow adds the resolved bucket count to a windowed read's reply.
func withWindow(resp map[string]any, wn int) map[string]any {
	if wn > 0 {
		resp["window"] = wn
	}
	return resp
}

func writeJSON(w http.ResponseWriter, v any) {
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	enc.SetEscapeHTML(false)
	enc.Encode(v)
}

// httpError writes the unified error envelope shared by every endpoint on
// both prefixes: {"error": "message", "code": <http status>}. The code rides
// in the body as well as the status line so clients reading through proxies
// (or wire ERROR frames, which reuse this vocabulary) see one shape.
func httpError(w http.ResponseWriter, code int, err error) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	json.NewEncoder(w).Encode(map[string]any{"error": err.Error(), "code": code})
}
