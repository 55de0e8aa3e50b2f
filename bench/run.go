package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io/fs"
	"math"
	"path/filepath"
	"slices"
	"strings"
	"time"

	"repro/internal/snapcodec"
)

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// MarshalJSON writes a non-finite value — the latency when every request
// failed, a ratio over nothing — as null, which JSON can carry and no reader
// will mistake for a measurement.
func (m metric) MarshalJSON() ([]byte, error) {
	return json.Marshal(map[string]any{"value": finite(m.Value), "unit": m.Unit})
}

func finite(x float64) any {
	if math.IsInf(x, 0) || math.IsNaN(x) {
		return nil
	}
	return x
}

// gate is one correctness check; a run whose gates do not all pass exits
// non-zero whatever its numbers were.
type gate struct {
	Name   string `json:"name"`
	OK     bool   `json:"ok"`
	Detail string `json:"detail"`
}

// result is everything one run of one workload measured.
type result struct {
	Workload   string             `json:"workload"`
	Seed       uint64             `json:"seed"`
	Seconds    float64            `json:"seconds"`
	Metrics    map[string]metric  `json:"metrics"`     // the end-to-end metrics BENCHMARK.json gates
	Diag       map[string]float64 `json:"diagnostics"` // printed, never gated
	Attempted  int                `json:"attempted"`
	Failed     int                `json:"failed"`
	Gates      []gate             `json:"gates"`
	Noisy      bool               `json:"noisy"`      // some phase lacked its quorum of quiet slices
	Overloaded bool               `json:"overloaded"` // the paced phase's queue grew: the server cannot hold the paced rate
	Phases     map[string][]slice `json:"phases"`
}

func (r *result) correct() bool {
	for _, g := range r.Gates {
		if !g.OK {
			return false
		}
	}
	return len(r.Gates) > 0
}

func (r *result) check(name string, ok bool, format string, args ...any) {
	r.Gates = append(r.Gates, gate{name, ok, fmt.Sprintf(format, args...)})
}

const (
	// connections is how many requests the writer keeps in flight: two, so
	// that the server always has the next request waiting while it answers
	// one, which is what lets it commit them as a group.
	connections = 2
	// Set-up is repeated on throw-away instances, so that setup_s is a
	// median, and each throw-away instance is crashed and restarted a few
	// times, so that recover_s has restarts to choose from. A single node is
	// up in a fifth of a second and a ring in three, so the repeats are
	// counted in time: at least the minimum, then as many as the budget holds.
	minThrowAways, maxThrowAways = 2, 8
	throwAwayBudget              = 4 * time.Second
	minProbes, maxProbes         = 3, 10
	probeBudget                  = 500 * time.Millisecond // per throw-away instance
	pinnedRecoveries             = 5                      // restarts timed after the pinned crash
	// convergeLimit is how long replicas may take to serve identical bytes
	// after the last write. Three nodes on one CPU need 10 to 15 s of
	// anti-entropy rounds; the time is printed, the limit only says "never".
	convergeLimit = 60 * time.Second
	// How -seconds is divided. The one gated timing comes from the reads; the
	// write phases feed diagnostics, the disk and memory metrics, and the
	// registers the accuracy gates read.
	satShare, pacedShare, readShare = 0.25, 0.30, 0.45
	// A phase is cut into slices of a quarter to half a second. Steal comes in
	// bursts of a few hundred milliseconds, so slices that short leave clean
	// ones between the bursts; with five long slices a spell left none.
	slicesPerPhase = 25
	quietQuorum    = 13              // quiet slices a phase needs to be reported from them alone
	extraSlices    = 20              // replacement slices one run may spend on hypervisor steal
	quietBudget    = 6 * time.Second // and how long it may wait for the steal to pass before its stages
)

// runWorkload is the whole life of one workload: set-up (repeated, so its
// time is a median), a closed-loop saturate phase, an open-loop paced phase,
// reads, crash recovery, and the correctness gates.
func runWorkload(e *env, sp spec, seed uint64, seconds float64) (*result, error) {
	r := &result{
		Workload: sp.name, Seed: seed, Seconds: seconds,
		Metrics: map[string]metric{}, Diag: map[string]float64{}, Phases: map[string][]slice{},
	}
	r.Diag["host_spin_mops_before"] = spinMops(200 * time.Millisecond)
	pl := genPool(sp, seed)

	// Set-up runs several times so that its time is a median. The throw-away
	// instances are also where crash recovery is probed.
	var setups, recovers []float64
	quiet := time.Duration(quietBudget)
	hold := func() { awaitQuietHost(&quiet) }
	probed := sp
	if sp.nodes > 1 {
		// A member that comes back sets off anti-entropy repair on its peers;
		// at the workload's 500 ms rounds the next probe would be timed in the
		// middle of it. The throw-away rings park the repair loop (the last
		// flag given wins), which changes nothing before the first crash.
		probed.flags = append(append([]string(nil), sp.flags...), "-antientropy", "1h")
	}
	retries := 0
	throwAwaysStart := time.Now()
	for rep := 0; rep < maxThrowAways && (rep < minThrowAways || time.Since(throwAwaysStart) < throwAwayBudget); rep++ {
		hold()
		cl, ld, again, err := setUp(e, probed, pl.fresh(), rep)
		if err != nil {
			return nil, err
		}
		retries += again
		setups = append(setups, time.Since(cl.execAt).Seconds())
		probesStart := time.Now()
		for i := 0; i < maxProbes && (i < minProbes || time.Since(probesStart) < probeBudget) && !sp.killPinned; i++ {
			s, err := probeRecovery(r, cl)
			if err != nil {
				return nil, err // the caller's cleanup reaps what this leaves
			}
			recovers = append(recovers, s)
		}
		ld.close()
		cl.destroy()
	}
	hold()
	cl, ld, again, err := setUp(e, sp, pl, maxThrowAways)
	if err != nil {
		return nil, err
	}
	defer cl.destroy()
	defer ld.close()
	setups = append(setups, time.Since(cl.execAt).Seconds())
	r.Attempted += sp.preload
	r.Metrics["setup_s"] = metric{median(setups), "s"}
	r.Diag["setups"] = float64(len(setups))
	r.Diag["boot_retries"] = float64(retries + again)

	// Measured phases.
	sliceOf := func(share float64) time.Duration {
		return time.Duration(seconds * share / slicesPerPhase * float64(time.Second))
	}
	satSlice, pacedSlice := sliceOf(satShare), sliceOf(pacedShare)
	extra := extraSlices
	var killAt time.Time
	if sp.killPinned {
		// The crash is pinned to the server's checkpoint ticker: 2 s after
		// the last tick that fits in the budget. Slices divide what is left
		// of that window and are never re-run.
		ticks := math.Max(1, math.Floor((seconds+1)/5))
		killAt = cl.execAt.Add(time.Duration(5*ticks+2) * time.Second)
		satSlice = time.Until(killAt) / (2 * slicesPerPhase)
		pacedSlice = satSlice
		extra = 0
		hold = func() {} // these phases start on the server's clock, whatever the host is doing
	}
	actors := func(rate float64) []actor {
		a := []actor{ld.writer(rate)}
		if sp.readerBeside {
			a = append(a, ld.reader(sp.readRate))
		}
		return a
	}
	extraAtStart := extra
	hold()
	cpuBefore := cl.cpuSeconds()
	sat := runPhase(actors(0), satSlice, slicesPerPhase, &extra)
	cpuSat := cl.cpuSeconds() - cpuBefore
	r.addPhase("saturate", sat)
	// Replication lag: how long after the last ack until every replica has
	// applied every acknowledged event. Zero on one node.
	lag, err := cl.applied(int64(sp.preload*sp.batch)+sat.totals["write"].events, 30*time.Second)
	if err != nil {
		return nil, err
	}
	hold()
	cpuBefore = cl.cpuSeconds()
	paced := runPhase(actors(sp.pacedRate), pacedSlice, slicesPerPhase, &extra)
	cpuPaced := cl.cpuSeconds() - cpuBefore
	r.addPhase("paced", paced)
	if sp.killPinned {
		time.Sleep(time.Until(killAt))
		cl.nodes[0].kill()
	}
	truth, acks, events := pl.tally(sp.n)
	reads := paced
	if !sp.readerBeside {
		// The reader runs alone on a settled system: on a ring the end of the
		// writes sets off a burst of anti-entropy joins.
		t0 := time.Now()
		_, err := cl.converged(convergeLimit)
		r.Diag["converge_s"] = time.Since(t0).Seconds()
		if sp.nodes > 1 {
			r.check("replicas_converge", err == nil, "byte-identical %.3f s after the last ack (limit %v; %v)", r.Diag["converge_s"], convergeLimit, err)
		}
		if err != nil {
			return nil, err
		}
		hold()
		reads = runPhase([]actor{ld.reader(0)}, sliceOf(readShare), slicesPerPhase, &extra)
		r.addPhase("reads", reads)
	}
	if sp.killPinned {
		// The crash left a checkpoint and a WAL tail. Restarting does not
		// change either until the next checkpoint tick 5 s later, so the same
		// recovery can be timed several times.
		for i := 0; i < pinnedRecoveries; i++ {
			d, err := cl.recoverProbe(0)
			if err != nil {
				return nil, err
			}
			recovers = append(recovers, d.Seconds())
		}
		r.checkWindowRecovery(cl, ld)
	}

	w := func(p phaseResult, reduce func([]float64) float64, f func(slice) float64) float64 {
		v, noisy := overSlices(p.slices["write"], quietQuorum, reduce, f)
		r.Noisy = r.Noisy || noisy
		return v
	}
	rd := func(q float64) float64 {
		v, noisy := reads.pooled("read", quietQuorum, q)
		r.Noisy = r.Noisy || noisy
		return v
	}
	// A rate is events over time, so the mean of its slices: where the server
	// stops to checkpoint or to rotate a bucket, the median slice never saw it.
	r.Diag["ingest_events_per_s"] = w(sat, mean, func(s slice) float64 { return s.EventsPS })
	r.Diag["ack_p50_ms"] = w(paced, median, func(s slice) float64 { return s.P50 })
	r.Metrics["read_p99_ms"] = metric{rd(0.99), "ms"}
	r.Diag["recover_s"] = slices.Min(recovers)
	r.Diag["server_cpu_s_per_mevent"] = cpuSat / (float64(sat.totals["write"].events) / 1e6)

	r.Diag["server_cpu_s_per_mevent_paced"] = cpuPaced / (float64(paced.totals["write"].events) / 1e6)
	r.Diag["read_p50_ms"] = rd(0.50)
	r.Diag["recover_median_s"] = median(recovers)
	r.Diag["replicated_events_per_s"] = float64(sat.totals["write"].events) / (sat.elapsed + lag).Seconds()
	r.Diag["ack_p99_ms"] = w(paced, median, func(s slice) float64 { return s.P99 })
	r.Diag["ack_p999_ms"] = w(paced, median, func(s slice) float64 { return s.P999 })
	r.Diag["gen_late_ms"] = maxOver(paced.slices["write"], func(s slice) float64 { return s.LateMaxMS })
	r.Diag["host_steal_pct"] = maxOver(append(append(sat.slices["write"], paced.slices["write"]...), reads.slices["read"]...),
		func(s slice) float64 { return s.StealPct })
	r.Diag["replication_lag_s"] = lag.Seconds()
	r.Diag["quiet_wait_s"] = (quietBudget - quiet).Seconds()
	r.Diag["extra_slices"] = float64(extraAtStart - extra)

	r.check("no_failed_requests", r.Failed == 0, "%d of %d requests failed (first: %v)", r.Failed, r.Attempted, firstErr(sat, paced, reads))
	// Overload is a statement about speed, not about answers: it is flagged
	// beside the numbers, and ack_p50_ms, which then reads far over any bound,
	// is what fails a change that causes it. A gate here failed correct code
	// whenever the host took the CPU away for a second.
	r.Overloaded = overloaded(paced.slices["write"])
	r.Diag["paced_p50_first_ms"], r.Diag["paced_p50_last_ms"], _, _ = pacedTrend(paced.slices["write"])
	if !sp.killPinned {
		r.checkBank(cl, truth, acks, events)
	}
	// Memory is read last: the high-water mark includes what checkpoints,
	// anti-entropy joins and snapshot reads needed on top of the registers.
	r.Metrics["peak_rss_mb"] = metric{cl.peakRSSMB(), "MB"}
	r.Metrics["disk_bytes_per_event"] = metric{float64(dirBytes(cl.dir)) / float64(events), "B"}
	r.Diag["host_spin_mops_after"] = spinMops(200 * time.Millisecond)
	return r, nil
}

func (r *result) addPhase(name string, p phaseResult) {
	for actor, slices := range p.slices {
		r.Phases[name+"."+actor] = slices
		r.Attempted += p.totals[actor].requests
		r.Failed += p.totals[actor].failed
	}
}

// setUp is everything before the first measured request: processes up and
// ready, the ring settled, connections dialed, the preload acknowledged.
func setUp(e *env, sp spec, p *pool, instance int) (*fleet, *load, int, error) {
	cl, retries, err := boot(e, sp, instance)
	if err != nil {
		return nil, nil, retries, err
	}
	ld, err := newLoad(sp, p, cl, connections)
	if err == nil {
		if err = ld.preload(); err != nil {
			ld.close()
		}
	}
	if err != nil {
		cl.destroy()
		return nil, nil, retries, err
	}
	return cl, ld, retries, nil
}

// dirBytes is what the data directories hold: WAL segments, outbox logs and
// checkpoints of every node.
func dirBytes(root string) (n int64) {
	_ = filepath.WalkDir(root, func(_ string, d fs.DirEntry, err error) error {
		if err == nil && d.Type().IsRegular() {
			if info, err := d.Info(); err == nil {
				n += info.Size()
			}
		}
		return nil // a file a daemon removed meanwhile is not an error
	})
	return n
}

func firstErr(phases ...phaseResult) error {
	for _, p := range phases {
		if p.firstErr != nil {
			return p.firstErr
		}
	}
	return nil
}

func maxOver(slices []slice, f func(slice) float64) float64 {
	m := 0.0
	for _, s := range slices {
		m = math.Max(m, f(s))
	}
	return m
}

// probeRecovery crashes the last node of a throw-away instance right after
// its fixed preload and times the restart. The WAL to replay is the preload,
// the same on every run, so the time does not depend on how fast the measured
// phases went. The restarted node must have replayed every key it had
// applied; a single node must also serve the very bytes it served before.
// (A ring member's bytes move under anti-entropy repair as soon as it is
// back, so there the key count is the check.)
func probeRecovery(r *result, cl *fleet) (seconds float64, err error) {
	if _, err := cl.applied(int64(cl.sp.preload*cl.sp.batch), bootTimeout); err != nil {
		return 0, err
	}
	last := cl.nodes[len(cl.nodes)-1]
	state := func() (applied float64, snap []byte, err error) {
		series, err := last.scrape(cl.hc)
		if err == nil && len(cl.nodes) == 1 {
			snap, err = getBytes(cl.hc, last.base()+"/v1/snapshot")
		}
		return sumSeries(series, appliedKeys), snap, err
	}
	appliedBefore, snapBefore, err := state()
	if err != nil {
		return 0, err
	}
	d, err := cl.recoverProbe(len(cl.nodes) - 1)
	if err != nil {
		return 0, err
	}
	appliedAfter, snapAfter, err := state()
	if err != nil {
		return 0, err
	}
	r.check("crash_keeps_acked_state", appliedAfter == appliedBefore && appliedBefore > 0 && bytes.Equal(snapBefore, snapAfter),
		"after kill -9 and restart: %.0f keys replayed of %.0f applied, snapshot %d bytes against %d before",
		appliedAfter, appliedBefore, len(snapAfter), len(snapBefore))
	return d.Seconds(), nil
}

// checkBank compares what the bank engine answers with the generator's
// exact tally: the sum of all estimates on every replica, each node's own
// count of applied keys, and on Zipf streams the per-key error of the keys
// hot enough for Morris(a = 0.005) to be in its relative-error regime.
func (r *result) checkBank(cl *fleet, truth []uint32, acks, events int64) {
	blob, err := cl.converged(convergeLimit)
	if err != nil {
		r.check("estimates_readable", false, "%v", err)
		return
	}
	snap, err := snapcodec.Decode(blob)
	if err != nil {
		r.check("estimates_readable", false, "snapshot does not decode: %v", err)
		return
	}
	alg, err := snap.Alg()
	if err != nil || len(snap.Registers) != len(truth) {
		r.check("estimates_readable", false, "snapshot of %d registers (%v) for %d keys", len(snap.Registers), err, len(truth))
		return
	}
	var sum, relErr float64
	hot := 0
	for k, reg := range snap.Registers {
		est := alg.Estimate(reg)
		sum += est
		if truth[k] >= 1000 {
			relErr += math.Abs(est-float64(truth[k])) / float64(truth[k])
			hot++
		}
	}
	sumErr := 100 * math.Abs(sum-float64(events)) / float64(events)
	r.Diag["sum_rel_err_pct"] = sumErr
	r.check("sum_of_estimates", sumErr < 3, "Σ estimates %.0f vs %d acked events: %.3f %% off (limit 3 %%), identical on %d replica(s)", sum, events, sumErr, len(cl.nodes))
	if hot >= 30 { // fewer keys than that and the mean is one key's luck
		relErr = 100 * relErr / float64(hot)
		r.Diag["est_abs_rel_err_pct"] = relErr
		r.check("hot_key_error", relErr < 6, "mean |N̂−N|/N over %d keys with N ≥ 1000: %.2f %% (Morris a=0.005 budget 6 %%)", hot, relErr)
	}
	var fsyncs, replKeys float64
	for i, n := range cl.nodes {
		series, err := n.scrape(cl.hc)
		if err != nil {
			r.check("metrics_scrape", false, "%v", err)
			return
		}
		applied := sumSeries(series, appliedKeys)
		r.check(fmt.Sprintf("node%d_applied_keys", i), applied == float64(events),
			appliedKeys+" %.0f vs %d acked events", applied, events)
		fsyncs += sumSeries(series, "counterd_wal_fsync_seconds_count")
		replKeys += sumSeries(series, "counterd_cluster_repl_keys_sent_total")
	}
	r.Diag["wal.fsyncs_per_ack"] = fsyncs / float64(acks)
	if len(cl.nodes) > 1 {
		r.Diag["cluster.repl_keys_per_acked_key"] = replKeys / float64(events)
	}
}

// windowGateKeys is how many of the hottest keys the windowed gate reads. One
// Morris register is off by about 5 % (one sigma) however many events it has
// seen, so one key within 15 % fails a correct server once in a few hundred
// runs; the mean over sixteen keys stays near 4 % and a tenth is out of reach.
const windowGateKeys = 16

// checkWindowRecovery runs after the pinned crash: the node must have come
// back from a checkpoint plus a replayed WAL tail, and its full-window
// estimates of the hottest keys must match what the writer got acknowledged
// in the buckets the window still holds.
func (r *result) checkWindowRecovery(cl *fleet, ld *load) {
	var hz struct {
		RecoveredFrom   string `json:"recoveredFrom"`
		ReplayedRecords int    `json:"replayedRecords"`
		BucketNanos     int64  `json:"bucketNanos"`
		WindowBuckets   int    `json:"windowBuckets"`
	}
	base := cl.nodes[0].base()
	if err := getJSON(cl.hc, base+"/v1/healthz", &hz); err != nil {
		r.check("recovered_from_checkpoint", false, "%v", err)
		return
	}
	r.check("recovered_from_checkpoint", strings.Contains(hz.RecoveredFrom, "snap") && hz.ReplayedRecords > 0,
		"recoveredFrom %q, %d WAL records replayed", hz.RecoveredFrom, hz.ReplayedRecords)
	r.Diag["replayed_records"] = float64(hz.ReplayedRecords)

	// The daemon's idle ticker (a quarter bucket) rotates the restored ring
	// to the present; the window the estimates cover ends at the epoch the
	// server reports, which may trail the wall clock by one tick.
	time.Sleep(time.Duration(hz.BucketNanos)/4 + 100*time.Millisecond)
	var est [windowGateKeys]float64
	for try := 0; ; try++ {
		var before, after struct {
			WindowEpoch int64 `json:"windowEpoch"`
		}
		err := getJSON(cl.hc, base+"/v1/healthz", &before)
		for k := 0; k < windowGateKeys && err == nil; k++ {
			var ans struct {
				Estimate float64 `json:"estimate"`
			}
			err = getJSON(cl.hc, fmt.Sprintf("%s/v1/estimate/%d?window=%d", base, k, hz.WindowBuckets), &ans)
			est[k] = ans.Estimate
		}
		if err == nil {
			err = getJSON(cl.hc, base+"/v1/healthz", &after)
		}
		if err != nil {
			r.check("window_estimate_after_crash", false, "%v", err)
			return
		}
		epoch := after.WindowEpoch
		if epoch != before.WindowEpoch && try < 3 {
			continue // a bucket rotated under the queries
		}
		from := time.Unix(0, (epoch-int64(hz.WindowBuckets)+1)*hz.BucketNanos)
		var want [windowGateKeys]float64
		for _, a := range ld.ackLog {
			if a.at.Before(from) {
				continue
			}
			for _, k := range ld.pool.keys[a.batch] {
				if k < windowGateKeys {
					want[k]++
				}
			}
		}
		var off, bias float64
		for k := range est {
			rel := 100 * (est[k] - want[k]) / want[k]
			off += math.Abs(rel) / windowGateKeys
			bias += rel / windowGateKeys
		}
		r.Diag["window_hot_keys_err_pct"] = off
		r.Diag["window_hot_keys_bias_pct"] = bias
		r.check("window_estimate_after_crash", off < 10,
			"%d hottest keys over the full %d-bucket window against what was acked since %s: mean |N̂−N|/N %.2f %% (limit 10 %%), mean signed %+.2f %%; key 0: estimate %.0f, acked %.0f",
			windowGateKeys, hz.WindowBuckets, from.Format("15:04:05"), off, bias, est[0], want[0])
		return
	}
}
