package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"repro/internal/engine"
	"repro/internal/snapcodec"
)

func topkConfig(t *testing.T, n int) Config {
	cfg := testConfig(t, n)
	cfg.Engine = engine.KindTopK
	cfg.Partitions = 8
	cfg.TopKCap = 32
	return cfg
}

func snapshotBytes(t *testing.T, st *Store) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := st.SnapshotTo(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// The store-level behavior pin for the engine refactor: GET /snapshot of a
// Morris store must be byte-identical to snapcodec-encoding the reference
// shardbank built from the same construction parameters and batch history —
// the exact bytes the pre-engine store served.
func TestStoreSnapshotBytesPinned(t *testing.T) {
	cfg := testConfig(t, 800)
	st, err := Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close(false)
	batches := zipfBatches(cfg.N, 30, 64, 17)
	for _, b := range batches {
		if err := st.Apply(b); err != nil {
			t.Fatal(err)
		}
	}
	ref := referenceBank(cfg, batches)
	want := &snapcodec.Snapshot{
		N:         ref.Len(),
		Shards:    ref.Shards(),
		Seed:      ref.Seed(),
		Registers: ref.ExportState().Registers,
	}
	if err := want.SetAlg(ref.Algorithm()); err != nil {
		t.Fatal(err)
	}
	wantBytes, err := snapcodec.Encode(want)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(snapshotBytes(t, st), wantBytes) {
		t.Fatal("store /snapshot bytes diverge from the direct shardbank encoding")
	}
}

// A topk-engine store is durable exactly like the bank: recovery from seed
// + WAL, and from checkpoint + WAL suffix, must serve byte-identical
// /snapshot streams.
func TestTopKStoreRestartExactness(t *testing.T) {
	cfg := topkConfig(t, 2000)
	st, err := Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	batches := zipfBatches(cfg.N, 50, 128, 23)
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
	if st.Stats().Engine != engine.KindTopK {
		t.Fatalf("engine = %q", st.Stats().Engine)
	}
	want := snapshotBytes(t, st)
	wantTop, err := st.TopK(10, -1, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(wantTop) != 10 {
		t.Fatalf("top-10 returned %d entries", len(wantTop))
	}
	if err := st.Close(false); err != nil { // crash: checkpoint + WAL suffix
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
		t.Fatal("recovered topk /snapshot differs from pre-crash bytes")
	}
	gotTop, err := st2.TopK(10, -1, 0)
	if err != nil {
		t.Fatal(err)
	}
	for i := range wantTop {
		if gotTop[i] != wantTop[i] {
			t.Fatalf("top-k entry %d: recovered %+v, want %+v", i, gotTop[i], wantTop[i])
		}
	}
}

// Top-k merges are WAL-logged and replay exactly, in both join flavors.
func TestTopKStoreMergeReplay(t *testing.T) {
	cfg := topkConfig(t, 2000)
	st, err := Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, b := range zipfBatches(cfg.N, 20, 128, 29) {
		if err := st.Apply(b); err != nil {
			t.Fatal(err)
		}
	}
	peerCfg := topkConfig(t, 2000)
	peerCfg.Seed = 77
	peer, err := Open(peerCfg)
	if err != nil {
		t.Fatal(err)
	}
	defer peer.Close(false)
	for _, b := range zipfBatches(cfg.N, 30, 128, 31) {
		if err := peer.Apply(b); err != nil {
			t.Fatal(err)
		}
	}
	// One whole-engine disjoint merge, one partition max join.
	if err := st.Merge(snapshotBytes(t, peer)); err != nil {
		t.Fatalf("merge: %v", err)
	}
	var pblob bytes.Buffer
	if err := peer.PartitionSnapshotTo(&pblob, 3); err != nil {
		t.Fatal(err)
	}
	if err := st.MergeMax(pblob.Bytes()); err != nil {
		t.Fatalf("mergemax: %v", err)
	}
	want := snapshotBytes(t, st)
	if err := st.Close(false); err != nil {
		t.Fatal(err)
	}
	st2, err := Open(cfg)
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	defer st2.Close(false)
	if got := snapshotBytes(t, st2); !bytes.Equal(got, want) {
		t.Fatal("replayed topk merges diverge from the live state")
	}
	if s := st2.Stats(); s.Merges != 1 || s.MergeMaxes != 1 {
		t.Fatalf("replayed merge counters: %+v", s)
	}
}

// A bank-engine snapshot must not merge into a topk store and vice versa —
// rejected BEFORE the WAL stage, as a 400-class input error.
func TestCrossEngineMergeRejected(t *testing.T) {
	bankSt, err := Open(testConfig(t, 500))
	if err != nil {
		t.Fatal(err)
	}
	defer bankSt.Close(false)
	cfg := topkConfig(t, 500)
	topkSt, err := Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := topkSt.Merge(snapshotBytes(t, bankSt)); err == nil {
		t.Fatal("bank snapshot merged into topk store")
	}
	if err := bankSt.MergeMax(snapshotBytes(t, topkSt)); err == nil {
		t.Fatal("topk snapshot merged into bank store")
	}
	// The rejected merges must not have been logged: the store reopens.
	if err := topkSt.Close(false); err != nil {
		t.Fatal(err)
	}
	st2, err := Open(cfg)
	if err != nil {
		t.Fatalf("reopen after rejected cross-engine merge: %v", err)
	}
	st2.Close(false)
}

// GET /topk serves ranked keys on both engines.
func TestHTTPTopK(t *testing.T) {
	for _, tc := range []struct {
		name string
		cfg  Config
	}{
		{"bank", testConfig(t, 300)},
		{"topk", topkConfig(t, 300)},
	} {
		t.Run(tc.name, func(t *testing.T) {
			st, err := Open(tc.cfg)
			if err != nil {
				t.Fatal(err)
			}
			defer st.Close(false)
			// Key 5 hottest, then 6, then 7.
			var keys []int
			for i := 0; i < 300; i++ {
				keys = append(keys, 5)
				if i%2 == 0 {
					keys = append(keys, 6)
				}
				if i%4 == 0 {
					keys = append(keys, 7)
				}
			}
			if err := st.Apply(keys); err != nil {
				t.Fatal(err)
			}
			srv := httptest.NewServer(Handler(st))
			defer srv.Close()
			resp, err := http.Get(srv.URL + "/v1/topk?k=3")
			if err != nil {
				t.Fatal(err)
			}
			var out struct {
				K      int            `json:"k"`
				Engine string         `json:"engine"`
				TopK   []engine.Entry `json:"topk"`
			}
			if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
				t.Fatal(err)
			}
			resp.Body.Close()
			if out.Engine != tc.name || len(out.TopK) != 3 {
				t.Fatalf("topk response: %+v", out)
			}
			if out.TopK[0].Key != 5 {
				t.Fatalf("hottest key = %d, want 5", out.TopK[0].Key)
			}
			// Partition-scoped: keys 5..7 share low partitions; a partition
			// query returns only keys of that partition's range.
			resp, err = http.Get(srv.URL + "/v1/topk?k=5&partition=" + fmt.Sprint(st.Partitions()-1))
			if err != nil {
				t.Fatal(err)
			}
			if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
				t.Fatal(err)
			}
			resp.Body.Close()
			lo, _ := snapcodec.PartitionRange(st.Len(), st.Partitions(), st.Partitions()-1)
			for _, e := range out.TopK {
				if e.Key < lo {
					t.Fatalf("partition query leaked key %d below %d", e.Key, lo)
				}
			}
		})
	}
}

// The error-status contract of the HTTP surface, table-driven: malformed
// bodies and parameters are 400s (never 500 — a client must be able to
// trust that a 5xx means a server fault), missing resources are 404s.
// Every case runs against the /v1 prefix, and once more without it: each
// route has one spelling, so the unprefixed path answers 404 — it reaches
// no handler at all.
func TestHTTPErrorStatuses(t *testing.T) {
	st, err := Open(testConfig(t, 100))
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close(false)
	srv := httptest.NewServer(Handler(st))
	defer srv.Close()

	topkSt, err := Open(topkConfig(t, 800))
	if err != nil {
		t.Fatal(err)
	}
	defer topkSt.Close(false)
	topkBlob := snapshotBytes(t, topkSt)

	for _, tc := range []struct {
		name   string
		method string
		path   string
		body   string
		want   int
	}{
		{"inc bad json", "POST", "/inc", `{"keys": [1,`, http.StatusBadRequest},
		{"inc empty body", "POST", "/inc", ``, http.StatusBadRequest},
		{"inc no keys", "POST", "/inc", `{}`, http.StatusBadRequest},
		{"inc wrong type", "POST", "/inc", `{"keys": "nope"}`, http.StatusBadRequest},
		{"inc out of range", "POST", "/inc", `{"key": 100}`, http.StatusBadRequest},
		{"inc negative", "POST", "/inc", `{"keys": [-1]}`, http.StatusBadRequest},
		{"estimate bad key", "GET", "/estimate/zzz", "", http.StatusBadRequest},
		{"estimate out of range", "GET", "/estimate/100", "", http.StatusNotFound},
		{"snapshot bad partition", "GET", "/snapshot/zz", "", http.StatusBadRequest},
		{"snapshot partition 404", "GET", "/snapshot/99", "", http.StatusNotFound},
		{"merge empty body", "POST", "/merge", ``, http.StatusBadRequest},
		{"merge garbage", "POST", "/merge", `not a snapshot`, http.StatusBadRequest},
		{"merge truncated magic", "POST", "/merge", "NYS", http.StatusBadRequest},
		{"mergemax empty body", "POST", "/mergemax", ``, http.StatusBadRequest},
		{"mergemax garbage", "POST", "/mergemax", `{"keys":[1]}`, http.StatusBadRequest},
		{"mergemax cross engine", "POST", "/mergemax", string(topkBlob), http.StatusBadRequest},
		{"topk missing k", "GET", "/topk", "", http.StatusBadRequest},
		{"topk bad k", "GET", "/topk?k=zero", "", http.StatusBadRequest},
		{"topk negative k", "GET", "/topk?k=-3", "", http.StatusBadRequest},
		// Over MaxTopK is refused outright — on this 100-key store the
		// range cap used to turn any k into a served scan.
		{"topk oversized k", "GET", fmt.Sprintf("/topk?k=%d", MaxTopK+1), "", http.StatusBadRequest},
		{"topk oversized k partition", "GET", fmt.Sprintf("/topk?k=%d&partition=0", MaxTopK+1), "", http.StatusBadRequest},
		{"topk bad partition", "GET", "/topk?k=5&partition=x", "", http.StatusBadRequest},
		{"topk partition range", "GET", "/topk?k=5&partition=99", "", http.StatusBadRequest},
		{"distinct wrong engine", "GET", "/distinct", "", http.StatusBadRequest},
		{"f2 wrong engine", "GET", "/f2", "", http.StatusBadRequest},
	} {
		for _, prefix := range []string{"", "/v1"} {
			name := tc.name
			if prefix != "" {
				name = tc.name + " (v1)"
			}
			want := tc.want
			if prefix == "" {
				want = http.StatusNotFound
			}
			t.Run(name, func(t *testing.T) {
				req, err := http.NewRequest(tc.method, srv.URL+prefix+tc.path, strings.NewReader(tc.body))
				if err != nil {
					t.Fatal(err)
				}
				resp, err := http.DefaultClient.Do(req)
				if err != nil {
					t.Fatal(err)
				}
				defer resp.Body.Close()
				if resp.StatusCode != want {
					t.Fatalf("%s %s%s: status %d, want %d", tc.method, prefix, tc.path, resp.StatusCode, want)
				}
				if prefix == "" {
					return // the mux's own 404, not the API's envelope
				}
				// Every error body is the unified envelope:
				// {"error": "...", "code": <status>}.
				var e struct {
					Error string `json:"error"`
					Code  int    `json:"code"`
				}
				if err := json.NewDecoder(resp.Body).Decode(&e); err != nil || e.Error == "" {
					t.Fatalf("error body not a JSON error envelope (%v)", err)
				}
				if e.Code != tc.want {
					t.Fatalf("envelope code %d, want %d", e.Code, tc.want)
				}
			})
		}
	}
}

// The unprefixed aliases are gone: a read answers 404 where its /v1 route
// answers 200, and an unprefixed POST /inc counts nothing. /metrics, where
// Prometheus scrapes, is the one path served both ways.
func TestUnprefixedRoutesAnswer404(t *testing.T) {
	st, err := Open(testConfig(t, 100))
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close(false)
	srv := httptest.NewServer(Handler(st))
	defer srv.Close()

	resp, err := http.Post(srv.URL+"/inc", "application/json", strings.NewReader(`{"keys":[1,2,2,7]}`))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound || st.Stats().Keys != 0 {
		t.Fatalf("POST /inc: status %d, %d keys counted", resp.StatusCode, st.Stats().Keys)
	}
	for _, path := range []string{"/estimate/2", "/estimates", "/snapshot", "/healthz", "/readyz", "/metrics"} {
		for _, prefix := range []string{"", "/v1"} {
			resp, err := http.Get(srv.URL + prefix + path)
			if err != nil {
				t.Fatal(err)
			}
			resp.Body.Close()
			want := http.StatusOK
			if prefix == "" && path != "/metrics" {
				want = http.StatusNotFound
			}
			if resp.StatusCode != want {
				t.Fatalf("GET %s%s: status %d, want %d", prefix, path, resp.StatusCode, want)
			}
		}
	}
}
