package main

import (
	"fmt"
	"log"
	"runtime"
	"strings"
	"time"

	"repro/internal/metrics"
)

// smokeMetrics boots one cluster-mode node, waits for the readiness gate,
// drives traffic through the HTTP surface, then lints the whole /metrics
// exposition with the parser the unit tests use
// (internal/metrics.LintExposition), asserts the key series of every
// instrumented layer (store, WAL, HTTP, cluster, rebalance), and checks
// the embedded ops dashboard is self-contained HTML.
func smokeMetrics(f *fleet) error {
	f.args = []string{
		"-cluster", "-n", "10000", "-partitions", "8", "-rf", "1",
		"-gossip", "100ms", "-rebalance", "100ms", "-fsync", "always",
	}
	n, err := f.start()
	if err != nil {
		return err
	}

	// The readiness gate must open once the solo node reconciles its ring.
	err = poll(10*time.Second, 50*time.Millisecond, func() error {
		_, _, err := f.fetch(n.base + "/v1/readyz")
		return err
	})
	if err != nil {
		return fmt.Errorf("readiness gate never opened: %w", err)
	}

	// Drive traffic so every layer has observations: 50 batches, a read, a
	// top-k, a ring read, and a deliberate 404 (error-path counter).
	for i := 0; i < 50; i++ {
		if err := f.inc(n, []int{1, 2, 2, 7, 7, 7, i % 10000}); err != nil {
			return fmt.Errorf("POST /v1/inc: %w", err)
		}
	}
	for _, p := range []string{"/v1/estimate/7", "/v1/topk?k=5", "/v1/cluster/ring"} {
		if _, _, err := f.fetch(n.base + p); err != nil {
			return err
		}
	}
	if _, _, err := f.fetch(n.base + "/v1/estimate/999999999"); err == nil {
		return fmt.Errorf("GET /v1/estimate/999999999 of a 10000-key node answered 200")
	}

	// Scrape and validate the full exposition.
	scrape, _, err := f.fetch(n.base + "/metrics")
	if err != nil {
		return err
	}
	body := string(scrape)
	if err := metrics.LintExposition(strings.NewReader(body)); err != nil {
		return fmt.Errorf("/metrics failed exposition lint: %w", err)
	}
	log.Printf("scraped %d bytes of valid exposition", len(body))

	// Key series from every instrumented layer, with live values where the
	// traffic above pins them exactly.
	wants := []string{
		`counterd_http_requests_total{endpoint="/inc",code="200"} 50`,
		`counterd_store_apply_keys_total{engine=`,
		"counterd_store_apply_seconds_bucket{",
		"counterd_store_keyspace_keys 10000",
		"counterd_store_partitions 8",
		"counterd_store_pending_partitions 0",
		"counterd_wal_fsync_seconds_count",
		"counterd_wal_segments",
		"counterd_cluster_ring_members 1",
		`counterd_cluster_members{state="alive"} 1`,
		"counterd_cluster_outbox_pending_keys",
		"counterd_rebalance_transfers 0",
		"counterd_store_start_time_seconds",
		`counterd_mem_bytes{part="registers"} `,
		`counterd_mem_bytes{part="heap_live"} `,
		`counterd_mem_bytes{part="cut_copies"} `,
		`counterd_mem_bytes{part="mapped"} `,
	}
	if runtime.GOOS == "linux" { // the rss parts read /proc/self/status
		wants = append(wants, `counterd_mem_bytes{part="rss_file"} `)
	}
	for _, want := range wants {
		if !strings.Contains(body, want) {
			return fmt.Errorf("/metrics is missing %q", want)
		}
	}

	// The ops dashboard must be a self-contained HTML document (no external
	// assets — it has to work from inside an airgapped cluster).
	dash, header, err := f.fetch(n.base + "/v1/cluster/dash")
	if err != nil {
		return err
	}
	if ct := header.Get("Content-Type"); !strings.HasPrefix(ct, "text/html") {
		return fmt.Errorf("dashboard Content-Type %q", ct)
	}
	for _, frag := range []string{"<!doctype html>", "counterd ops"} {
		if !strings.Contains(strings.ToLower(string(dash)), strings.ToLower(frag)) {
			return fmt.Errorf("dashboard HTML is missing %q", frag)
		}
	}
	for _, banned := range []string{"src=\"http", "href=\"http", "@import", "cdn."} {
		if strings.Contains(string(dash), banned) {
			return fmt.Errorf("dashboard references an external asset (%q)", banned)
		}
	}
	log.Printf("dashboard OK (%d bytes, self-contained)", len(dash))
	log.Print("metrics: OK")
	return nil
}
