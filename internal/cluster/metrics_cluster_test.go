package cluster

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/metrics"
	"repro/internal/stream"
	"repro/internal/xrand"
)

// readyz fetches the node's /readyz and returns the status code.
func (tn *testNode) readyz() int {
	resp, err := http.Get(tn.self + "/v1/readyz")
	if err != nil {
		return 0
	}
	defer resp.Body.Close()
	io.Copy(io.Discard, resp.Body)
	return resp.StatusCode
}

// TestReadinessGateOnJoin is the readiness-gate contract behind the
// Kubernetes deployment: a joining node must answer /readyz with 503 the
// whole time its partitions are still rebalancing onto it, and flip to 200
// exactly when it is reconciled at the current ring version with nothing
// pending — never before. Both nodes hold back every request that could
// land a partition on the joiner until the joiner has been seen reconciled
// with its installs pending, so the gate is polled in that state on every
// run instead of racing a join that may already be over. The test also
// scrapes /metrics on a live cluster node and lint-validates the
// exposition, so the cluster-layer series (counterd_cluster_*,
// counterd_rebalance_*) go through the same parser roundtrip as the
// store's.
func TestReadinessGateOnJoin(t *testing.T) {
	cc := defaultClusterConfig()
	release := make(chan struct{})
	var releaseOnce sync.Once
	releaseInstalls := func() { releaseOnce.Do(func() { close(release) }) }
	cc.wrap = func(h http.Handler) http.Handler {
		return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			if landsPartition(r) {
				select {
				case <-release:
				case <-r.Context().Done():
					return // the node is shutting down
				}
			}
			h.ServeHTTP(w, r)
		})
	}
	n0 := startNode(t, t.TempDir(), "", cc, nil)
	defer n0.shutdown()

	// Seed data so the joiner has real history to pull.
	src := stream.NewZipf(uint64(cc.n), 1.05, xrand.NewSeeded(7))
	for i := 0; i < 40; i++ {
		keys := make([]int, 250)
		for j := range keys {
			keys[j] = int(src.Next())
		}
		if err := n0.postInc(keys); err != nil {
			t.Fatalf("seed inc: %v", err)
		}
	}

	// The solo node reconciles its own ring quickly and reports ready.
	waitUntil(t, 5*time.Second, "first node ready", func() bool {
		return n0.readyz() == http.StatusOK
	})

	// A fresh joiner must NOT be ready before it has reconciled the joined
	// ring and installed every pulled partition. While the installs are
	// held, 200 is wrong at every poll; once the joiner reports the joined
	// ring reconciled with partitions pending, the poll that follows sees
	// the gate with installs owed and nothing able to clear them.
	n1 := startNode(t, t.TempDir(), "", cc, []string{n0.self})
	defer n1.shutdown()
	defer releaseInstalls() // a failed poll lets the held requests through first
	waitUntil(t, 5*time.Second, "joiner reconciled with installs pending", func() bool {
		var rs RebalanceStatus
		if err := getJSON(n1.self+"/v1/cluster/rebalance", &rs); err != nil {
			t.Fatalf("rebalance status: %v", err)
		}
		if code := n1.readyz(); code == http.StatusOK {
			t.Fatalf("joining node reported ready with its installs held (reconciled=%v pending=%v)",
				rs.Reconciled, rs.Pending)
		}
		return rs.Reconciled && len(rs.Pending) > 0
	})
	releaseInstalls()

	// The gate must hold (503) at every poll until the rebalance status
	// itself says reconciled-with-nothing-pending, and then flip to 200.
	waitUntil(t, 15*time.Second, "joiner ready", func() bool {
		code := n1.readyz()
		var rs RebalanceStatus
		if err := getJSON(n1.self+"/v1/cluster/rebalance", &rs); err != nil {
			t.Fatalf("rebalance status: %v", err)
		}
		settled := rs.Reconciled && len(rs.Pending) == 0
		if code == http.StatusOK && !settled {
			t.Fatalf("readyz=200 while rebalance reports reconciled=%v pending=%v",
				rs.Reconciled, rs.Pending)
		}
		return code == http.StatusOK
	})

	// The joiner pulled real partitions; the rebalance counters must agree
	// on both surfaces (/cluster/rebalance JSON and /metrics exposition —
	// they read the same atomics).
	var rs RebalanceStatus
	if err := getJSON(n1.self+"/v1/cluster/rebalance", &rs); err != nil {
		t.Fatalf("rebalance status: %v", err)
	}
	if rs.Moved == 0 {
		t.Fatalf("joiner reports 0 partitions moved after becoming ready")
	}

	body, err := n1.fetch("/metrics")
	if err != nil {
		t.Fatalf("scrape /metrics: %v", err)
	}
	if err := metrics.LintExposition(strings.NewReader(string(body))); err != nil {
		t.Fatalf("cluster node /metrics: invalid exposition: %v", err)
	}
	text := string(body)
	if want := fmt.Sprintf("counterd_rebalance_partitions_moved_total %d", rs.Moved); !strings.Contains(text, want) {
		t.Errorf("/metrics disagrees with /cluster/rebalance: missing %q", want)
	}
	for _, series := range []string{
		"counterd_cluster_antientropy_rounds_total",
		"counterd_cluster_repl_keys_sent_total",
		"counterd_cluster_outbox_pending_keys",
		`counterd_cluster_members{state="alive"} 2`,
		"counterd_rebalance_cutover_seconds_bucket",
		"counterd_store_pending_partitions 0",
		"counterd_antientropy_delta_syncs_total",
		"counterd_antientropy_bytes_saved_total",
		"counterd_rebalance_delta_handoffs_total",
	} {
		if !strings.Contains(text, series) {
			t.Errorf("/metrics is missing %q", series)
		}
	}

	// The embedded ops dashboard serves from the cluster surface.
	resp, err := http.Get(n1.self + "/v1/cluster/dash")
	if err != nil {
		t.Fatalf("GET /v1/cluster/dash: %v", err)
	}
	dash, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET /v1/cluster/dash: status %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/html") {
		t.Fatalf("dashboard Content-Type %q", ct)
	}
	if !strings.Contains(string(dash), "counterd ops") {
		t.Fatalf("dashboard HTML missing title")
	}
}

// landsPartition reports whether r can install partition state on the node
// it reaches or, served, on the node that sent it: a rebalance handoff, a
// block delta either way, or a pushed snapshot join.
func landsPartition(r *http.Request) bool {
	p := r.URL.Path
	return strings.HasPrefix(p, "/v1/cluster/handoff/") || strings.HasPrefix(p, "/v1/cluster/bdelta/") ||
		p == "/v1/merge" || p == "/v1/mergemax"
}

// waitUntil polls cond until it returns true or the deadline passes.
func waitUntil(t *testing.T, d time.Duration, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(d)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(25 * time.Millisecond)
	}
	t.Fatalf("timed out waiting for %s", what)
}

// getJSON decodes a GET response body into out.
func getJSON(url string, out any) error {
	resp, err := http.Get(url)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		io.Copy(io.Discard, resp.Body)
		return fmt.Errorf("%s: status %d", url, resp.StatusCode)
	}
	return json.NewDecoder(io.LimitReader(resp.Body, 1<<20)).Decode(out)
}
