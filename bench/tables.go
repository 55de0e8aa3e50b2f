package main

import (
	"encoding/json"
	"strings"
)

// The two tables below are the benchmark's definition. BENCHMARK.json at the
// root of the repository is -describe's output, and a test holds the file to
// it; README.md explains the choices.

// e2eMetric is a number a user of counterd would see. Every workload reports
// every one of them. Bound is the share of the parent commit's median by
// which a change may make it worse; the bounds were confirmed with -aa and
// ten seeds per workload on the reference box (see README.md).
type e2eMetric struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

var e2eMetrics = []e2eMetric{
	// first exec to first measured request: boot, readiness, ring settle, dial, paced preload; median of the run's set-ups; go build excluded
	{"setup_s", "s", "lower", 0.25},
	// reader loop (9 point estimates : 1 top-10), highest percentile with ten samples beyond it; in practice the top-10 scan
	{"read_p99_ms", "ms", "lower", 0.25},
	// largest VmHWM any server process reached by the end of the run, summed over nodes
	{"peak_rss_mb", "MB", "lower", 0.15},
	// bytes in the data directories of all nodes at the end of the run (WAL, outbox logs, checkpoints) per acknowledged event
	{"disk_bytes_per_event", "B", "lower", 0.10},
}

// Printed by every run, gated by nothing: over five ten-seed sweeps on the
// reference box each of these spread wider than 20 % at least once, against
// the 25 % the contract allows a bound (README.md has the numbers), so
// holding a change to them would reject correct code whenever the host's mood
// changed between the two sides.
//
//	ingest_events_per_s      acknowledged events per second, closed-loop saturate phase
//	replicated_events_per_s  saturate-phase events ÷ (saturate time + time until every replica has applied them)
//	ack_p50_ms               median write latency in the open-loop paced phase, from the intended send time
//	server_cpu_s_per_mevent  server user+system CPU seconds, summed over nodes, per million events of the saturate phase
//	recover_s                restart exec after kill -9 to /v1/readyz on a fixed amount of logged work; fastest of the run's restarts

// layerMetric is a number about one Go package, measured in-process by
// -trace. It has no bound: it exists to say where an end-to-end change came
// from. moves names the end-to-end metric and workload it should move.
type layerMetric struct {
	Name   string `json:"name"`
	Unit   string `json:"unit"`
	Better string `json:"better"`
	moves  string
}

const (
	movesBulk    = "ingest_events_per_s, ack_p50_ms on wire_bank and ring3_wire; not http_small_durable"
	movesApply   = "ingest_events_per_s on wire_bank"
	movesSmall   = "ack_p50_ms, ingest_events_per_s on http_small_durable"
	movesCkpt    = "ack_p50_ms on mixed_window_recover (and its diagnostic ack_p99_ms)"
	movesRecover = "the recover_s diagnostic on every workload, most on mixed_window_recover"
	movesWAL     = "ingest_events_per_s, ack_p50_ms on http_small_durable; not wire_bank"
	movesBank    = "ingest_events_per_s on wire_bank and ring3_wire"
	movesWindow  = "ack_p50_ms, read_p99_ms on mixed_window_recover"
	movesNone    = "no end-to-end workload yet: this row is the only guard on that engine"
	movesSnap    = "recover_s, setup_s; the checkpoint rows of server"
	movesRing    = "ingest_events_per_s, replicated_events_per_s on ring3_wire; not the single-node workloads"
	movesClient  = "ack_p50_ms on ring3_wire"
)

var layerMetrics = []layerMetric{
	{"wire.encode_ns_per_event", "ns", "lower", movesBulk},
	{"wire.decode_ns_per_event", "ns", "lower", movesBulk},
	{"wire.bytes_per_event", "B", "lower", movesBulk},
	{"wire.roundtrip_us", "us", "lower", movesBulk},

	{"server.apply_us_per_batch", "us", "lower", movesApply},
	{"server.apply_small_us", "us", "lower", movesSmall},
	{"server.apply_self_us_per_batch", "us", "lower", movesApply},
	{"server.apply_parallel_speedup", "x", "higher", movesApply + " (understated on 2 vCPUs)"},
	{"server.http_inc_us", "us", "lower", movesSmall},
	{"server.http_inc_self_us", "us", "lower", movesSmall},
	{"server.http_estimate_us", "us", "lower", "the read_p50_ms diagnostic on every workload"},
	{"server.checkpoint_full_ms", "ms", "lower", movesCkpt},
	{"server.checkpoint_delta_ms", "ms", "lower", movesCkpt},
	{"server.checkpoint_bytes_full", "B", "lower", movesCkpt},
	{"server.checkpoint_bytes_delta", "B", "lower", movesCkpt},
	{"server.ckpt_stall_ms", "ms", "lower", movesCkpt},
	{"server.recover_ms", "ms", "lower", movesRecover},

	{"wal.append_us_per_batch.interval", "us", "lower", "ingest_events_per_s on wire_bank (a small share: 1.8 B/event)"},
	{"wal.append_us.always", "us", "lower", movesWAL},
	{"wal.bytes_per_event", "B", "lower", "disk_bytes_per_event on every workload; " + movesRecover},
	{"wal.fsyncs_per_ack", "ratio", "lower", movesWAL},
	{"wal.replay_events_per_s", "1/s", "higher", movesRecover},

	{"engine.bank.apply_ns_per_event", "ns", "lower", movesBank},
	{"engine.topk.apply_ns_per_event", "ns", "lower", movesNone},
	{"engine.window.apply_ns_per_event", "ns", "lower", movesWindow},
	{"engine.distinct.apply_ns_per_event", "ns", "lower", movesNone},
	{"engine.f2.apply_ns_per_event", "ns", "lower", movesNone},
	{"engine.bank.estimate_ns", "ns", "lower", "the read_p50_ms diagnostic on wire_bank, http_small_durable, ring3_wire"},
	{"engine.bank.estimate_all_ms", "ms", "lower", "read_p99_ms on the bank workloads (the top-10 scan reads every estimate)"},
	{"engine.window.estimate_ns", "ns", "lower", movesWindow},
	{"engine.window.topk_us", "us", "lower", movesWindow},
	{"engine.window.advance_us", "us", "lower", movesWindow},
	{"engine.distinct.estimate_us", "us", "lower", movesNone},
	{"engine.f2.estimate_us", "us", "lower", movesNone},
	{"engine.bank.snapshot_ms", "ms", "lower", movesSnap},
	{"engine.bank.hash_range_us", "us", "lower", "replicated_events_per_s on ring3_wire (anti-entropy hashes every partition)"},
	{"engine.bank.bits_per_key", "bit", "lower", "peak_rss_mb on the bank workloads — the paper's quantity"},

	{"shardbank.increment_batch_ns_per_event", "ns", "lower", movesBank},
	{"shardbank.increment_batch_parallel_speedup", "x", "higher", movesBank + " (understated on 2 vCPUs)"},
	{"shardbank.estimate_all_ms", "ms", "lower", "read_p99_ms on the bank workloads"},

	{"snapcodec.encode_ms_per_mkey", "ms", "lower", movesSnap},
	{"snapcodec.decode_ms_per_mkey", "ms", "lower", movesSnap},
	{"snapcodec.bits_per_key", "bit", "lower", movesSnap},
	{"snapcodec.delta_bytes_per_dirty_block", "B", "lower", movesSnap},

	{"cluster.ingest_us_per_batch", "us", "lower", movesRing},
	{"cluster.ingest_self_us_per_batch", "us", "lower", movesRing},
	{"cluster.converge_s", "s", "lower", "replicated_events_per_s on ring3_wire"},
	{"cluster.repl_keys_per_acked_key", "ratio", "lower", movesRing + " (RF−1 when nothing is resent)"},
	{"cluster.outbox_peak_pending_keys", "count", "lower", "replicated_events_per_s on ring3_wire"},

	{"client.route_ns_per_event", "ns", "lower", movesClient},
	{"client.flush_us", "us", "lower", movesClient},

	{"metrics.observe_ns", "ns", "lower", "server_cpu_s_per_mevent everywhere: the price of each instrument ROADMAP item 5 adds"},

	{"approxcount.ny_increment_ns", "ns", "lower", "none: the paper's primitive crosses no serving workload; tracked so it cannot rot"},
	{"approxcount.ny_state_bits", "bit", "lower", "none: the paper's space bound at ε = 0.1, δ = 1e-4, N = 10⁶"},
	{"engine.bank.est_abs_rel_err_pct", "%", "lower", "none: accuracy of the served estimates; the wire_bank gate checks the same end to end"},

	{"trace.overhead_pct", "%", "lower", "none: what recording spans costs the traced replay"},
}

// runSeconds is how long one run measures; the phases divide it.
const runSeconds = 30

// describe renders BENCHMARK.json from the tables.
func describe() []byte {
	type workload struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	}
	doc := struct {
		Command    []string      `json:"command"`
		Paths      []string      `json:"paths"`
		RunSeconds int           `json:"run_seconds"`
		Workloads  []workload    `json:"workloads"`
		EndToEnd   []e2eMetric   `json:"end_to_end"`
		PerLayer   []layerMetric `json:"per_layer"`
	}{
		Command: []string{"bash", "bench/run.sh"}, Paths: []string{"bench"}, RunSeconds: runSeconds,
		EndToEnd: e2eMetrics, PerLayer: layerMetrics,
	}
	for _, sp := range specs {
		if sp.gated {
			doc.Workloads = append(doc.Workloads, workload{sp.name, sp.why})
		}
	}
	var sb strings.Builder
	enc := json.NewEncoder(&sb)
	enc.SetEscapeHTML(false)
	enc.SetIndent("", "  ")
	_ = enc.Encode(doc) // strings and numbers only
	return []byte(sb.String())
}
