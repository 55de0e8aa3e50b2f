package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/bank"
	"repro/internal/engine"
)

// windowConfig builds a window-engine store with a test-controlled logical
// clock (the returned atomic): bucket rotation happens exactly when the
// test advances it, never from the wall clock.
func windowConfig(t *testing.T, n int) (Config, *atomic.Uint64) {
	t.Helper()
	clk := &atomic.Uint64{}
	cfg := testConfig(t, n)
	cfg.Engine = engine.KindWindow
	cfg.Partitions = 4
	cfg.Buckets = 4
	cfg.BucketDur = time.Second
	cfg.Clock = clk.Load
	return cfg, clk
}

// A window store is durable exactly like the bank: recovery from seed +
// WAL (tick records included), and from checkpoint + WAL suffix, must
// serve byte-identical /snapshot streams — even though the wall clock at
// replay time is completely different from the recorded epochs.
func TestWindowStoreRestartExactness(t *testing.T) {
	cfg, clk := windowConfig(t, 2000)
	st, err := Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	batches := zipfBatches(cfg.N, 40, 128, 31)
	for i, b := range batches {
		if i%10 == 9 {
			clk.Add(1) // rotate a bucket mid-stream → RecTick in the log
		}
		if err := st.Apply(b); err != nil {
			t.Fatal(err)
		}
		if i == 19 {
			if err := st.Checkpoint(); err != nil {
				t.Fatal(err)
			}
		}
	}
	stats := st.Stats()
	if stats.Engine != engine.KindWindow || stats.WindowBuckets != 4 || stats.WindowEpoch != 4 {
		t.Fatalf("stats: %+v", stats)
	}
	if stats.Ticks == 0 {
		t.Fatal("no ticks recorded")
	}
	want := snapshotBytes(t, st)
	wantTop, err := st.TopKWindow(10, -1, 2)
	if err != nil {
		t.Fatal(err)
	}
	if err := st.Close(false); err != nil { // crash: checkpoint + WAL suffix
		t.Fatal(err)
	}

	// The restart's clock reads an ancient epoch: replay must use the
	// logged epochs, not this clock.
	cfg.Clock = func() uint64 { return 0 }
	st2, err := Open(cfg)
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	defer st2.Close(false)
	if s := st2.Stats(); s.RecoveredFrom != "snapshot" || s.WindowEpoch != 4 {
		t.Fatalf("recovery stats: %+v", s)
	}
	if got := snapshotBytes(t, st2); !bytes.Equal(got, want) {
		t.Fatal("recovered window /snapshot differs from pre-crash bytes")
	}
	gotTop, err := st2.TopKWindow(10, -1, 2)
	if err != nil {
		t.Fatal(err)
	}
	for i := range wantTop {
		if gotTop[i] != wantTop[i] {
			t.Fatalf("windowed top-k entry %d: recovered %+v, want %+v", i, gotTop[i], wantTop[i])
		}
	}
}

// Windowed reads over HTTP: rotation expires old buckets, ?window= scopes
// estimates and top-k, durations round up to buckets.
func TestHTTPWindowQueries(t *testing.T) {
	cfg, clk := windowConfig(t, 400)
	cfg.Alg = bank.NewExactAlg(20) // exact registers: assertable counts
	st, err := Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close(false)
	srv := httptest.NewServer(Handler(st))
	defer srv.Close()

	post := func(keys []int) {
		t.Helper()
		body, _ := json.Marshal(map[string][]int{"keys": keys})
		resp, err := http.Post(srv.URL+"/inc", "application/json", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("inc: status %d", resp.StatusCode)
		}
	}
	getJSON := func(path string, out any) int {
		t.Helper()
		resp, err := http.Get(srv.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		if out != nil && resp.StatusCode == http.StatusOK {
			if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
				t.Fatal(err)
			}
		}
		return resp.StatusCode
	}

	post(repeat(5, 30)) // epoch 0: key 5 hot
	clk.Store(1)
	post(repeat(9, 20)) // epoch 1: key 9 hot (tick staged by this write)

	var est struct {
		Estimate float64 `json:"estimate"`
		Window   int     `json:"window"`
	}
	if code := getJSON("/estimate/5?window=1", &est); code != http.StatusOK || est.Estimate != 0 {
		t.Fatalf("trailing-bucket estimate of the old key: code %d, %+v", code, est)
	}
	if getJSON("/estimate/5?window=4", &est); est.Estimate != 30 {
		t.Fatalf("full-window estimate = %v, want 30", est.Estimate)
	}
	// Duration windows round up: 1.5s at 1s buckets = 2 buckets.
	if getJSON("/estimate/9?window=1500ms", &est); est.Estimate != 20 || est.Window != 2 {
		t.Fatalf("duration window: %+v", est)
	}

	var topk struct {
		Engine string         `json:"engine"`
		Window int            `json:"window"`
		TopK   []engine.Entry `json:"topk"`
	}
	if code := getJSON("/topk?k=2&window=1", &topk); code != http.StatusOK {
		t.Fatalf("windowed topk: %d", code)
	}
	if topk.Engine != engine.KindWindow || len(topk.TopK) != 1 || topk.TopK[0].Key != 9 {
		t.Fatalf("trailing-bucket topk: %+v", topk)
	}
	if getJSON("/topk?k=2", &topk); len(topk.TopK) != 2 || topk.TopK[0].Key != 5 {
		t.Fatalf("full-window topk: %+v", topk)
	}

	var ests struct {
		Estimates []float64 `json:"estimates"`
	}
	if getJSON("/estimates?window=1", &ests); ests.Estimates[5] != 0 || ests.Estimates[9] != 20 {
		t.Fatalf("windowed estimates: key5=%v key9=%v", ests.Estimates[5], ests.Estimates[9])
	}

	// Window abuse is a 400, never a 500 — and so is a k past MaxTopK.
	for _, path := range []string{
		"/estimate/5?window=0", "/estimate/5?window=99", "/estimate/5?window=zzz",
		"/topk?k=2&window=-1", "/estimates?window=1h",
		fmt.Sprintf("/topk?k=%d&window=1", MaxTopK+1),
	} {
		if code := getJSON(path, nil); code != http.StatusBadRequest {
			t.Fatalf("%s: status %d, want 400", path, code)
		}
	}
}

// A non-windowed engine rejects ?window= as a 400.
func TestHTTPWindowParamRejectedOnBank(t *testing.T) {
	st, err := Open(testConfig(t, 100))
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close(false)
	srv := httptest.NewServer(Handler(st))
	defer srv.Close()
	for _, path := range []string{"/estimate/5?window=1", "/estimates?window=1", "/topk?k=2&window=1"} {
		resp, err := http.Get(srv.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("%s on bank engine: status %d, want 400", path, resp.StatusCode)
		}
	}
}

// Window merges are WAL-logged and replay exactly, in both join flavors,
// including the tick records interleaved with them.
func TestWindowStoreMergeReplay(t *testing.T) {
	cfg, clk := windowConfig(t, 2000)
	st, err := Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for i, b := range zipfBatches(cfg.N, 20, 128, 37) {
		if i == 10 {
			clk.Store(2)
		}
		if err := st.Apply(b); err != nil {
			t.Fatal(err)
		}
	}
	peerCfg, peerClk := windowConfig(t, 2000)
	peerCfg.Seed = 77
	peer, err := Open(peerCfg)
	if err != nil {
		t.Fatal(err)
	}
	defer peer.Close(false)
	peerClk.Store(3) // peer's clock runs ahead: the merge advances ours
	for _, b := range zipfBatches(cfg.N, 10, 128, 41) {
		if err := peer.Apply(b); err != nil {
			t.Fatal(err)
		}
	}
	if err := st.Merge(snapshotBytes(t, peer)); err != nil {
		t.Fatalf("merge: %v", err)
	}
	var pblob bytes.Buffer
	if err := peer.PartitionSnapshotTo(&pblob, 1); err != nil {
		t.Fatal(err)
	}
	if err := st.MergeMax(pblob.Bytes()); err != nil {
		t.Fatalf("mergemax: %v", err)
	}
	if st.Stats().WindowEpoch != 3 {
		t.Fatalf("merge did not advance the clock: %+v", st.Stats())
	}
	want := snapshotBytes(t, st)
	if err := st.Close(false); err != nil {
		t.Fatal(err)
	}
	cfg.Clock = func() uint64 { return 0 }
	st2, err := Open(cfg)
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	defer st2.Close(false)
	if got := snapshotBytes(t, st2); !bytes.Equal(got, want) {
		t.Fatal("replayed window merges diverge from the live state")
	}
	if s := st2.Stats(); s.Merges != 1 || s.MergeMaxes != 1 {
		t.Fatalf("replayed merge counters: %+v", s)
	}
}

// AdvanceWindow ticks without writes, durably: the rotation survives a
// restart.
func TestAdvanceWindowDurable(t *testing.T) {
	cfg, clk := windowConfig(t, 300)
	cfg.Alg = bank.NewExactAlg(20)
	st, err := Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := st.Apply(repeat(7, 10)); err != nil {
		t.Fatal(err)
	}
	clk.Store(9) // beyond the whole ring
	if err := st.AdvanceWindow(); err != nil {
		t.Fatal(err)
	}
	if v, err := st.EstimateWindow(7, 4); err != nil || v != 0 {
		t.Fatalf("estimate after idle expiry = %v (%v)", v, err)
	}
	want := snapshotBytes(t, st)
	if err := st.Close(false); err != nil {
		t.Fatal(err)
	}
	cfg.Clock = func() uint64 { return 0 }
	st2, err := Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer st2.Close(false)
	if s := st2.Stats(); s.WindowEpoch != 9 {
		t.Fatalf("idle tick lost on restart: %+v", s)
	}
	if got := snapshotBytes(t, st2); !bytes.Equal(got, want) {
		t.Fatal("idle tick replay diverges")
	}
}

func repeat(key, times int) []int {
	out := make([]int, times)
	for i := range out {
		out[i] = key
	}
	return out
}
