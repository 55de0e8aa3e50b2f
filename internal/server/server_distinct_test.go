package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/engine"
)

func distinctConfig(t *testing.T, n int) Config {
	cfg := testConfig(t, n)
	cfg.Engine = engine.KindDistinct
	cfg.Partitions = 8
	cfg.DistinctPrecision = 10
	return cfg
}

func f2Config(t *testing.T, n int) Config {
	cfg := testConfig(t, n)
	cfg.Engine = engine.KindF2
	cfg.Partitions = 4
	cfg.F2Rows = 5
	cfg.F2Cols = 64
	return cfg
}

// A distinct-engine store is durable exactly like the bank: recovery from
// checkpoint + WAL suffix must serve byte-identical /snapshot streams and
// the identical cardinality estimate. The mid-stream checkpoint makes the
// reopen exercise the splice, and because the distinct engine tracks dirty
// blocks, a second checkpoint after a small tail of writes exercises the
// delta path on register-max state.
func TestDistinctStoreRestartExactness(t *testing.T) {
	cfg := distinctConfig(t, 2000)
	st, err := Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	batches := zipfBatches(cfg.N, 50, 128, 23)
	for i, b := range batches {
		if err := st.Apply(b); err != nil {
			t.Fatal(err)
		}
		if i == 24 || i == 47 {
			if err := st.Checkpoint(); err != nil {
				t.Fatal(err)
			}
		}
	}
	stats := st.Stats()
	if stats.Engine != engine.KindDistinct || stats.DistinctPrecision != 10 {
		t.Fatalf("stats: engine %q precision %d", stats.Engine, stats.DistinctPrecision)
	}
	want := snapshotBytes(t, st)
	wantEst, err := st.RangeEstimate(-1, 0)
	if err != nil {
		t.Fatal(err)
	}
	if wantEst <= 0 {
		t.Fatalf("cardinality estimate %v", wantEst)
	}
	if err := st.Close(false); err != nil { // crash: checkpoint + WAL suffix
		t.Fatal(err)
	}

	st2, err := Open(cfg)
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	defer st2.Close(false)
	if stats := st2.Stats(); stats.RecoveredFrom != "snapshot" || stats.ReplayedRecords != 2 {
		t.Fatalf("recovery stats: %+v", stats)
	}
	if got := snapshotBytes(t, st2); !bytes.Equal(got, want) {
		t.Fatal("recovered distinct /snapshot differs from pre-crash bytes")
	}
	if gotEst, err := st2.RangeEstimate(-1, 0); err != nil || gotEst != wantEst {
		t.Fatalf("recovered estimate %v (err %v), want %v", gotEst, err, wantEst)
	}
	// Per-partition estimates sum exactly to the whole-space answer:
	// partitions tile disjoint register banks.
	var sum float64
	for p := 0; p < st2.Partitions(); p++ {
		v, err := st2.RangeEstimate(p, 0)
		if err != nil {
			t.Fatal(err)
		}
		sum += v
	}
	if math.Abs(sum-wantEst) > 1e-6*wantEst {
		t.Fatalf("partition sum %v != whole-space %v", sum, wantEst)
	}
}

// Same durability pin for the f2 engine, whose snapshots are payload-only
// (no register section, always full checkpoints).
func TestF2StoreRestartExactness(t *testing.T) {
	cfg := f2Config(t, 2000)
	st, err := Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	batches := zipfBatches(cfg.N, 50, 128, 29)
	for i, b := range batches {
		if err := st.Apply(b); err != nil {
			t.Fatal(err)
		}
		if i == 24 {
			if err := st.Checkpoint(); err != nil {
				t.Fatal(err)
			}
		}
	}
	stats := st.Stats()
	if stats.Engine != engine.KindF2 || stats.F2Rows != 5 || stats.F2Cols != 64 {
		t.Fatalf("stats: engine %q rows %d cols %d", stats.Engine, stats.F2Rows, stats.F2Cols)
	}
	want := snapshotBytes(t, st)
	wantEst, err := st.RangeEstimate(-1, 0)
	if err != nil {
		t.Fatal(err)
	}
	if err := st.Close(false); err != nil {
		t.Fatal(err)
	}

	st2, err := Open(cfg)
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	defer st2.Close(false)
	if stats := st2.Stats(); stats.RecoveredFrom != "snapshot" || stats.ReplayedRecords != 25 {
		t.Fatalf("recovery stats: %+v", stats)
	}
	if got := snapshotBytes(t, st2); !bytes.Equal(got, want) {
		t.Fatal("recovered f2 /snapshot differs from pre-crash bytes")
	}
	if gotEst, err := st2.RangeEstimate(-1, 0); err != nil || gotEst != wantEst {
		t.Fatalf("recovered estimate %v (err %v), want %v", gotEst, err, wantEst)
	}
}

// GET /distinct and /f2 over live stores: the cardinality lands within the
// HLL error bound, partition scoping works, the windowed flavor honors
// ?window=, and a mis-aimed kind is a 400.
func TestHTTPDistinctF2(t *testing.T) {
	cfg := distinctConfig(t, 4000)
	st, err := Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close(false)
	// Touch every key once: true cardinality = n.
	keys := make([]int, cfg.N)
	for i := range keys {
		keys[i] = i
	}
	for lo := 0; lo < len(keys); lo += 256 {
		hi := min(lo+256, len(keys))
		if err := st.Apply(keys[lo:hi]); err != nil {
			t.Fatal(err)
		}
	}
	srv := httptest.NewServer(Handler(st))
	defer srv.Close()

	var out struct {
		Engine    string  `json:"engine"`
		Estimate  float64 `json:"estimate"`
		Partition *int    `json:"partition"`
	}
	get := func(path string) int {
		t.Helper()
		resp, err := http.Get(srv.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		if resp.StatusCode == http.StatusOK {
			if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
				t.Fatal(err)
			}
		}
		return resp.StatusCode
	}

	if code := get("/v1/distinct"); code != http.StatusOK {
		t.Fatalf("GET /v1/distinct: %d", code)
	}
	// 8 partitions x 2^10 registers; 3 sigma of the 1.04/sqrt(m) HLL bound.
	bound := 3 * 1.04 / math.Sqrt(float64(8*1024))
	if rel := math.Abs(out.Estimate-float64(cfg.N)) / float64(cfg.N); rel > bound {
		t.Fatalf("estimate %v vs true %d: rel err %v > %v", out.Estimate, cfg.N, rel, bound)
	}
	if out.Engine != engine.KindDistinct {
		t.Fatalf("engine %q", out.Engine)
	}
	var sum float64
	for p := 0; p < st.Partitions(); p++ {
		if code := get(fmt.Sprintf("/v1/distinct?partition=%d", p)); code != http.StatusOK {
			t.Fatalf("partition %d: %d", p, code)
		}
		if out.Partition == nil || *out.Partition != p {
			t.Fatalf("partition echo: %+v", out)
		}
		sum += out.Estimate
	}
	whole := out
	if code := get("/v1/distinct"); code != http.StatusOK {
		t.Fatal("re-read")
	}
	if math.Abs(sum-out.Estimate) > 1e-6*out.Estimate {
		t.Fatalf("partition sum %v != whole %v (%+v)", sum, out.Estimate, whole)
	}

	for _, path := range []string{
		"/v1/f2",                // wrong kind
		"/v1/distinct?window=3", // not windowed
		"/v1/distinct?partition=x",
		"/v1/distinct?partition=99",
	} {
		resp, err := http.Get(srv.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("GET %s: %d, want 400", path, resp.StatusCode)
		}
	}
}

// The windowed distinct flavor: an old unique cohort falls out of the
// window answer after the ring rotates past it, while the cumulative
// /distinct answer keeps counting it.
func TestHTTPDistinctWindow(t *testing.T) {
	clk := &atomic.Uint64{}
	cfg := distinctConfig(t, 4000)
	cfg.Buckets = 4
	cfg.BucketDur = time.Minute
	cfg.Clock = clk.Load
	st, err := Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close(false)

	cohortA := make([]int, 1000) // keys [0, 1000) in bucket epoch 0
	for i := range cohortA {
		cohortA[i] = i
	}
	if err := st.Apply(cohortA); err != nil {
		t.Fatal(err)
	}
	clk.Store(1) // epoch 1
	cohortB := make([]int, 500)
	for i := range cohortB {
		cohortB[i] = 2000 + i
	}
	if err := st.Apply(cohortB); err != nil {
		t.Fatal(err)
	}

	srv := httptest.NewServer(Handler(st))
	defer srv.Close()
	est := func(path string) float64 {
		t.Helper()
		resp, err := http.Get(srv.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("GET %s: %d", path, resp.StatusCode)
		}
		var out struct {
			Estimate float64 `json:"estimate"`
		}
		if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
			t.Fatal(err)
		}
		return out.Estimate
	}

	bound := 3 * 1.04 / math.Sqrt(float64(8*1024))
	full := est("/v1/distinct")
	if rel := math.Abs(full-1500) / 1500; rel > bound {
		t.Fatalf("full-ring estimate %v vs 1500: rel err %v", full, rel)
	}
	last := est("/v1/distinct?window=1") // only cohort B's bucket
	if rel := math.Abs(last-500) / 500; rel > bound {
		t.Fatalf("window=1 estimate %v vs 500: rel err %v", last, rel)
	}
	// Rotate cohort A out of the ring entirely; the full-ring answer drops
	// to cohort B alone once its bucket is the only live one left.
	clk.Store(4)                                  // epoch 4: bucket 0 (epoch 0) expired
	if err := st.Apply([]int{2000}); err != nil { // advance the ring
		t.Fatal(err)
	}
	after := est("/v1/distinct?window=4")
	if rel := math.Abs(after-500) / 500; rel > bound {
		t.Fatalf("post-expiry estimate %v vs 500: rel err %v", after, rel)
	}
}
