package server_test

import (
	"bytes"
	"fmt"
	"strings"
	"testing"

	"repro/internal/bank"
	"repro/internal/cluster"
	"repro/internal/metrics"
	"repro/internal/server"
)

// TestMetricNamesPinned pins the exported metric names: renaming a series
// breaks every dashboard and alert built on it, so a rename must show up in
// a test diff, not in a 3am page. Names may be ADDED freely; the ones below
// may not silently change. The cluster layer registers its series into the
// same registry, so a node is built around the store (never started) and
// its names are pinned here too.
func TestMetricNamesPinned(t *testing.T) {
	st, err := server.Open(server.Config{
		Dir: t.TempDir(), N: 100, Shards: 8, Alg: bank.NewMorrisAlg(0.02, 12), Seed: 42, NoSync: true,
	})
	if err != nil {
		t.Fatalf("open: %v", err)
	}
	defer st.Close(false)
	node, err := cluster.New(st, cluster.Config{
		Self: "http://127.0.0.1:1", HintDir: t.TempDir(), Logf: func(string, ...any) {},
	})
	if err != nil {
		t.Fatalf("cluster node: %v", err)
	}
	defer node.Stop()
	if err := st.Apply([]int{1, 2, 3}); err != nil {
		t.Fatalf("apply: %v", err)
	}
	for i := 0; i < 2; i++ { // one scan, one memo hit: both label values render
		if _, err := st.PartitionHash(0); err != nil {
			t.Fatalf("partition hash: %v", err)
		}
	}

	var buf bytes.Buffer
	if err := st.Metrics().WritePrometheus(&buf); err != nil {
		t.Fatalf("render: %v", err)
	}
	body := buf.String()

	pinned := []struct {
		name, typ string
	}{
		{"counterd_store_apply_batches_total", "counter"},
		{"counterd_store_apply_keys_total", "counter"},
		{"counterd_store_apply_seconds", "histogram"},
		{"counterd_store_batch_keys", "histogram"},
		{"counterd_store_merges_total", "counter"},
		{"counterd_store_evicts_total", "counter"},
		{"counterd_store_ticks_total", "counter"},
		{"counterd_store_keyspace_keys", "gauge"},
		{"counterd_store_partitions", "gauge"},
		{"counterd_store_pending_partitions", "gauge"},
		{"counterd_store_frozen_partitions", "gauge"},
		{"counterd_store_start_time_seconds", "gauge"},
		{"counterd_store_stale_hint_keys_total", "counter"},
		{"counterd_store_dirty_blocks", "gauge"},
		{"counterd_store_partition_hash_total", "counter"},
		{"counterd_checkpoint_seconds", "histogram"},
		{"counterd_checkpoint_seq", "gauge"},
		{"counterd_checkpoint_last_unixtime", "gauge"},
		{"counterd_checkpoint_total", "counter"},
		{"counterd_checkpoint_bytes_total", "counter"},
		{"counterd_checkpoint_chain_len", "gauge"},
		{"counterd_wal_append_seconds", "histogram"},
		{"counterd_wal_fsync_seconds", "histogram"},
		{"counterd_wal_commit_seconds", "histogram"},
		{"counterd_wal_staged_bytes_total", "counter"},
		{"counterd_wal_staged_records_total", "counter"},
		{"counterd_wal_rotations_total", "counter"},
		{"counterd_wal_segments", "gauge"},
		{"counterd_wal_active_segment", "gauge"},
		{"counterd_cluster_gossip_rounds_total", "counter"},
		{"counterd_rebalance_steps_total", "counter"},
		{"counterd_antientropy_repairs_total", "counter"},
	}
	for _, p := range pinned {
		decl := fmt.Sprintf("# TYPE %s %s\n", p.name, p.typ)
		if !strings.Contains(body, decl) {
			t.Errorf("pinned metric %s (%s) missing or re-typed", p.name, p.typ)
		}
	}
	for _, series := range []string{
		`counterd_store_partition_hash_total{source="scan"} 1`,
		`counterd_store_partition_hash_total{source="memo"} 1`,
		`counterd_cluster_gossip_rounds_total{cause="tick"} 0`,
		`counterd_cluster_gossip_rounds_total{cause="change"} 0`,
		`counterd_cluster_gossip_rounds_total{cause="join"} 0`,
		`counterd_rebalance_steps_total{cause="tick"} 0`,
		`counterd_rebalance_steps_total{cause="flip"} 0`,
		`counterd_rebalance_steps_total{cause="retry"} 0`,
		`counterd_antientropy_repairs_total{gate="recovery"} 0`,
		`counterd_antientropy_repairs_total{gate="divergence"} 0`,
	} {
		if !strings.Contains(body, series+"\n") {
			t.Errorf("exposition is missing %q", series)
		}
	}
	if err := metrics.LintExposition(strings.NewReader(body)); err != nil {
		t.Errorf("invalid exposition: %v", err)
	}
}
