package server

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strconv"
	"strings"
	"testing"

	"repro/internal/metrics"
	"repro/internal/snapcodec"
)

// scrape fetches path and returns the body.
func scrape(t *testing.T, base, path string) (int, string) {
	t.Helper()
	resp, err := http.Get(base + path)
	if err != nil {
		t.Fatalf("GET %s: %v", path, err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("read %s: %v", path, err)
	}
	return resp.StatusCode, string(body)
}

// TestMetricsRoundtrip drives real traffic through a live store's HTTP
// surface, scrapes GET /metrics, and validates the full exposition with the
// shared parser — HELP/TYPE declarations, label syntax, histogram bucket
// monotonicity, count == +Inf. The same linter runs inside
// tools/smoke (scenario metrics) against a real counterd process.
func TestMetricsRoundtrip(t *testing.T) {
	st, err := Open(testConfig(t, 500))
	if err != nil {
		t.Fatalf("open: %v", err)
	}
	defer st.Close(false)
	srv := httptest.NewServer(Handler(st))
	defer srv.Close()

	// Traffic: batches, a read, a checkpoint, health — every instrumented
	// layer below the cluster gets exercised.
	for i := 0; i < 20; i++ {
		body, _ := json.Marshal(map[string][]int{"keys": {1, 2, 2, 7, i % 500}})
		resp, err := http.Post(srv.URL+"/v1/inc", "application/json", bytes.NewReader(body))
		if err != nil {
			t.Fatalf("POST /v1/inc: %v", err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != 200 {
			t.Fatalf("POST /v1/inc: status %d", resp.StatusCode)
		}
	}
	if err := st.Checkpoint(); err != nil {
		t.Fatalf("checkpoint: %v", err)
	}
	scrape(t, srv.URL, "/v1/estimate/2")
	scrape(t, srv.URL, "/healthz")

	if code, _ := scrape(t, srv.URL, "/readyz"); code != 200 {
		t.Fatalf("/readyz: status %d, want 200 on a healthy store", code)
	}

	for _, path := range []string{"/metrics", "/v1/metrics"} {
		code, body := scrape(t, srv.URL, path)
		if code != 200 {
			t.Fatalf("GET %s: status %d", path, code)
		}
		if err := metrics.LintExposition(strings.NewReader(body)); err != nil {
			t.Fatalf("GET %s: invalid exposition: %v\n%s", path, err, body)
		}
	}

	_, body := scrape(t, srv.URL, "/metrics")
	// Spot-check live values, not just presence: 20 batches × 5 keys.
	if !strings.Contains(body, `counterd_store_apply_keys_total{engine=`) {
		t.Fatalf("apply-keys counter missing from exposition:\n%s", body)
	}
	for _, want := range []string{
		`counterd_http_requests_total{endpoint="/inc",code="200"} 20`,
		"counterd_store_apply_seconds_bucket{",
		"counterd_wal_fsync_seconds_count",
		"counterd_checkpoint_last_unixtime",
		"counterd_store_keyspace_keys 500",
	} {
		if !strings.Contains(body, want) {
			t.Errorf("exposition is missing %q", want)
		}
	}
}

// TestReadyzReportsWALFailure: /readyz is the writability gate — a closed
// (or poisoned) WAL must flip it to 503 while /healthz, the liveness probe,
// keeps answering 200 so the orchestrator restarts rather than just
// depools.
func TestReadyzReportsWALFailure(t *testing.T) {
	st, err := Open(testConfig(t, 100))
	if err != nil {
		t.Fatalf("open: %v", err)
	}
	srv := httptest.NewServer(Handler(st))
	defer srv.Close()

	if code, _ := scrape(t, srv.URL, "/v1/readyz"); code != 200 {
		t.Fatalf("/v1/readyz: status %d, want 200", code)
	}
	// Closing the store closes the WAL: the store can no longer durably
	// accept writes, so readiness must drop.
	st.Close(false)
	code, body := scrape(t, srv.URL, "/v1/readyz")
	if code != http.StatusServiceUnavailable {
		t.Fatalf("/v1/readyz after close: status %d, want 503 (%s)", code, body)
	}
	if !strings.Contains(body, `"ready":false`) {
		t.Fatalf("/v1/readyz after close: body %q", body)
	}
}

// memParts reads every counterd_mem_bytes{part} off one scrape of a
// server's /metrics, so parts compared with each other come from one instant.
func memParts(t *testing.T, url string) map[string]float64 {
	t.Helper()
	_, body := scrape(t, url, "/metrics")
	parts := make(map[string]float64)
	for _, line := range strings.Split(body, "\n") {
		rest, ok := strings.CutPrefix(line, `counterd_mem_bytes{part="`)
		if !ok {
			continue
		}
		p, v, _ := strings.Cut(rest, `"} `)
		f, err := strconv.ParseFloat(v, 64)
		if err != nil {
			t.Fatalf("%s: %v", line, err)
		}
		parts[p] = f
	}
	return parts
}

// A 4 M-key store's registers sit in shardbank's mapping outside the Go
// heap, and counterd_mem_bytes{part="mapped"} reports it (0 in builds that
// keep every bank on the heap).
func TestMemGaugesMappedBank(t *testing.T) {
	st, err := Open(testConfig(t, 4_000_000))
	if err != nil {
		t.Fatalf("open: %v", err)
	}
	defer st.Close(false)
	srv := httptest.NewServer(Handler(st))
	defer srv.Close()
	b := st.Bank()
	if m := b.MappedBytes(); m != 0 && m < b.SizeBytes() {
		t.Fatalf("a %d-byte mapping holds %d bytes of registers", m, b.SizeBytes())
	}
	if v, ok := memParts(t, srv.URL)["mapped"]; !ok || v != float64(b.MappedBytes()) {
		t.Fatalf("mapped = %v (present %v), the bank maps %d bytes", v, ok, b.MappedBytes())
	}
}

// counterd_mem_bytes reports the registers exactly, and the words writers
// save for an open snapshot go back to 0 once it is released — and stay 0
// across a /v1/snapshot of an idle store.
func TestMemGauges(t *testing.T) {
	st, err := Open(testConfig(t, 100_000))
	if err != nil {
		t.Fatalf("open: %v", err)
	}
	defer st.Close(false)
	srv := httptest.NewServer(Handler(st))
	defer srv.Close()
	for _, b := range zipfBatches(100_000, 20, 1024, 5) {
		if err := st.Apply(b); err != nil {
			t.Fatal(err)
		}
	}
	part := func(p string) (float64, bool) {
		t.Helper()
		v, ok := memParts(t, srv.URL)[p]
		return v, ok
	}
	if v, _ := part("registers"); v != float64(st.Bank().SizeBytes()) {
		t.Errorf("registers = %v, bank is %d bytes", v, st.Bank().SizeBytes())
	}
	if v, ok := part("mapped"); !ok || v != 0 {
		t.Errorf("mapped = %v (present %v) for %d bytes of registers, under the 4 MiB line", v, ok, st.Bank().SizeBytes())
	}
	runtime.GC() // heap_live is what the last GC marked: 0 before the first
	for _, p := range []string{"heap_live", "heap_goal"} {
		if v, ok := part(p); !ok || v <= 0 {
			t.Errorf("%s = %v (present %v)", p, v, ok)
		}
	}
	if runtime.GOOS == "linux" {
		m := memParts(t, srv.URL)
		rss, peak, file := m["rss"], m["rss_peak"], m["rss_file"]
		if rss <= 0 || peak < rss || file <= 0 || file > rss {
			t.Errorf("rss = %v, rss_peak = %v, rss_file = %v", rss, peak, file)
		}
	}
	if code, _ := scrape(t, srv.URL, "/v1/snapshot"); code != 200 {
		t.Fatalf("/v1/snapshot: status %d", code)
	}
	if v, ok := part("cut_copies"); !ok || v != 0 {
		t.Fatalf("cut_copies = %v after /v1/snapshot on an idle store (present %v)", v, ok)
	}
	// A snapshot still being read holds what writers change under it ...
	snap, err := st.Engine().Snapshot(0, 0, false)
	if err != nil {
		t.Fatal(err)
	}
	if err := st.Apply(zipfBatches(100_000, 1, 4096, 6)[0]); err != nil {
		t.Fatal(err)
	}
	if v, _ := part("cut_copies"); v <= 0 {
		t.Fatalf("cut_copies = %v while a written snapshot is open", v)
	}
	// ... and nothing once it is read and released.
	if err := snapcodec.EncodeTo(io.Discard, snap); err != nil {
		t.Fatal(err)
	}
	snap.Release()
	if v, _ := part("cut_copies"); v != 0 {
		t.Fatalf("cut_copies = %v after the snapshot was released", v)
	}
}
