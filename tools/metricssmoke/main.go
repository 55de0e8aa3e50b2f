// Command metricssmoke is the end-to-end observability smoke test: it
// launches a real counterd process in cluster mode, waits for the
// readiness gate, drives increments through the HTTP surface, then scrapes
// GET /metrics and validates the whole exposition with the shared linter
// (internal/metrics.LintExposition) — the same parser the unit tests use —
// and asserts the key series from every instrumented layer (store, WAL,
// HTTP, cluster, rebalance) are present with sane values. It also fetches
// the embedded ops dashboard and checks it serves self-contained HTML.
// Exits non-zero on any violation.
//
// Usage: go run ./tools/metricssmoke -counterd bin/counterd
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"log"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strings"
	"time"

	"repro/internal/metrics"
)

func main() {
	counterd := flag.String("counterd", "bin/counterd", "path to the counterd binary")
	flag.Parse()
	log.SetFlags(log.Ltime | log.Lmicroseconds)
	if err := run(*counterd); err != nil {
		log.Fatalf("metricssmoke: FAIL: %v", err)
	}
	log.Printf("metricssmoke: OK")
}

func run(counterd string) error {
	work, err := os.MkdirTemp("", "metricssmoke-*")
	if err != nil {
		return err
	}
	defer os.RemoveAll(work)

	port, err := freePort()
	if err != nil {
		return err
	}
	base := fmt.Sprintf("http://127.0.0.1:%d", port)
	logf, err := os.Create(filepath.Join(work, "counterd.log"))
	if err != nil {
		return err
	}
	defer logf.Close()

	cmd := exec.Command(counterd,
		"-cluster",
		"-addr", fmt.Sprintf("127.0.0.1:%d", port),
		"-dir", filepath.Join(work, "data"),
		"-n", "10000", "-partitions", "8", "-rf", "1",
		"-gossip", "100ms", "-rebalance", "100ms",
		"-fsync", "always",
	)
	cmd.Stdout = logf
	cmd.Stderr = logf
	if err := cmd.Start(); err != nil {
		return err
	}
	defer func() {
		cmd.Process.Kill()
		cmd.Wait()
	}()
	log.Printf("counterd up at %s (work %s)", base, work)

	hc := &http.Client{Timeout: 5 * time.Second}

	// The readiness gate must open once the solo node reconciles its ring.
	if err := await(hc, base+"/readyz", http.StatusOK, 10*time.Second); err != nil {
		return fmt.Errorf("readiness gate never opened: %w", err)
	}

	// Drive traffic so every layer has observations: 50 batches, a read, a
	// top-k, a deliberate 404 (error-path counter).
	for i := 0; i < 50; i++ {
		body, _ := json.Marshal(map[string][]int{"keys": {1, 2, 2, 7, 7, 7, i % 10000}})
		resp, err := hc.Post(base+"/v1/inc", "application/json", bytes.NewReader(body))
		if err != nil {
			return fmt.Errorf("POST /v1/inc: %w", err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			return fmt.Errorf("POST /v1/inc: status %d", resp.StatusCode)
		}
	}
	for _, p := range []string{"/v1/estimate/7", "/v1/topk?k=5", "/v1/cluster/ring", "/v1/estimate/999999999"} {
		resp, err := hc.Get(base + p)
		if err != nil {
			return fmt.Errorf("GET %s: %w", p, err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
	}

	// Scrape and validate the full exposition.
	body, err := fetch(hc, base+"/metrics")
	if err != nil {
		return err
	}
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
	resp, err := hc.Get(base + "/v1/cluster/dash")
	if err != nil {
		return fmt.Errorf("GET /v1/cluster/dash: %w", err)
	}
	dash, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("GET /v1/cluster/dash: status %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/html") {
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
	return nil
}

func freePort() (int, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return 0, err
	}
	defer l.Close()
	return l.Addr().(*net.TCPAddr).Port, nil
}

func await(hc *http.Client, url string, want int, d time.Duration) error {
	deadline := time.Now().Add(d)
	var last string
	for time.Now().Before(deadline) {
		resp, err := hc.Get(url)
		if err == nil {
			body, _ := io.ReadAll(io.LimitReader(resp.Body, 512))
			resp.Body.Close()
			if resp.StatusCode == want {
				return nil
			}
			last = fmt.Sprintf("status %d: %s", resp.StatusCode, bytes.TrimSpace(body))
		} else {
			last = err.Error()
		}
		time.Sleep(50 * time.Millisecond)
	}
	return fmt.Errorf("GET %s never answered %d (last: %s)", url, want, last)
}

func fetch(hc *http.Client, url string) (string, error) {
	resp, err := hc.Get(url)
	if err != nil {
		return "", err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return "", err
	}
	if resp.StatusCode != http.StatusOK {
		return "", fmt.Errorf("GET %s: status %d", url, resp.StatusCode)
	}
	return string(body), nil
}
