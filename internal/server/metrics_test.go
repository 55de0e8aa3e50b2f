package server

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"repro/internal/metrics"
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
// tools/metricssmoke against a real counterd process.
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
