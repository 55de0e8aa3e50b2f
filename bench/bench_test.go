package main

import (
	"bytes"
	"io"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/internal/wire"
)

func TestPickRankKeepsTenSamplesBeyond(t *testing.T) {
	for _, tc := range []struct {
		n       int
		q       float64
		wantIdx int
	}{
		{10000, 0.99, 9899}, // 100 beyond: the plain p99
		{1000, 0.99, 989},   // exactly 10 beyond
		{500, 0.99, 489},    // p99 would leave 5 beyond: lowered to 10
		{1000, 0.999, 989},  // p999 of 1000 samples is the p99 rank
		{15, 0.99, 7},       // never below the median
		{1, 0.5, 0},
	} {
		idx, eff := pickRank(tc.n, tc.q)
		if idx != tc.wantIdx {
			t.Errorf("pickRank(%d, %v) = %d, want %d", tc.n, tc.q, idx, tc.wantIdx)
		}
		if beyond := tc.n - 1 - idx; beyond < tailSamples && idx > (tc.n-1)/2 {
			t.Errorf("pickRank(%d, %v) leaves %d samples beyond", tc.n, tc.q, beyond)
		}
		if want := float64(idx+1) / float64(tc.n); eff != want {
			t.Errorf("pickRank(%d, %v) effective quantile %v, want %v", tc.n, tc.q, eff, want)
		}
	}
	if idx, _ := pickRank(0, 0.5); idx != -1 {
		t.Errorf("pickRank(0) = %d, want -1", idx)
	}
}

func TestFailuresSortAsInfinity(t *testing.T) {
	lat := make([]float64, 0, 100)
	for i := 0; i < 60; i++ {
		lat = append(lat, 1)
	}
	for i := 0; i < 40; i++ {
		lat = append(lat, math.Inf(1)) // 40 % failed
	}
	if p50 := percentile(lat, 0.50); p50 != 1 {
		t.Errorf("p50 with 40 %% failures = %v, want 1", p50)
	}
	if p99 := percentile(lat, 0.99); !math.IsInf(p99, 1) {
		t.Errorf("p99 with 40 %% failures = %v, want +Inf", p99)
	}
	if p := percentile(nil, 0.5); !math.IsInf(p, 1) {
		t.Errorf("percentile of nothing = %v, want +Inf", p)
	}
}

// A server that stalls once delays every request that was due during the
// stall. Measured from the due time, all of them are slow; a closed loop
// would have seen one slow request.
func TestOpenLoopLatencyCountsFromDueTime(t *testing.T) {
	calls := 0
	stalled := actor{name: "write", workers: 1, rate: 400, do: func(int) (int, error) {
		if calls++; calls == 1 {
			time.Sleep(100 * time.Millisecond)
		}
		return 1, nil
	}}
	extra := 0
	res := runPhase([]actor{stalled}, 40*time.Millisecond, 5, &extra)
	first := res.slices["write"][0]
	// 16 requests were due in the first 40 ms; the stall held them all.
	if first.Requests < 10 || first.P50 < 50 {
		t.Errorf("first slice: %d requests, p50 %.1f ms; want the stall charged to the requests it delayed", first.Requests, first.P50)
	}
	if first.LateMaxMS < 50 {
		t.Errorf("generator lateness %.1f ms, want the stall visible", first.LateMaxMS)
	}
	if last := res.slices["write"][4]; last.P50 > 20 {
		t.Errorf("last slice p50 %.1f ms: the backlog should have drained", last.P50)
	}
	if tot := res.totals["write"]; tot.failed != 0 || tot.events != int64(tot.requests) {
		t.Errorf("totals %+v: every request acknowledged one event", tot)
	}
}

func TestClosedLoopCountsEventsPerSlice(t *testing.T) {
	extra := 0
	res := runPhase([]actor{{name: "write", workers: 2, do: func(int) (int, error) {
		time.Sleep(time.Millisecond)
		return 10, nil
	}}}, 30*time.Millisecond, 5, &extra)
	if got := len(res.slices["write"]); got != 5 {
		t.Fatalf("%d slices, want 5", got)
	}
	for i, s := range res.slices["write"] {
		if s.Requests == 0 || s.Failed != 0 || s.EventsPS != float64(10*s.Requests)/0.030 {
			t.Errorf("slice %d: %+v", i, s)
		}
	}
}

func TestMedianOfSlicesAndNoisyRule(t *testing.T) {
	field := func(s slice) float64 { return s.EventsPS }
	quiet := []slice{{EventsPS: 5}, {EventsPS: 1}, {EventsPS: 9}, {EventsPS: 3}, {EventsPS: 7}}
	if v, noisy := overSlices(quiet, 5, median, field); v != 5 || noisy {
		t.Errorf("quiet slices: %v noisy=%v", v, noisy)
	}
	// A stolen slice with a replacement: the stolen one is left out.
	withExtra := append([]slice{{EventsPS: 100, StealPct: 40}}, quiet...)
	if v, noisy := overSlices(withExtra, 5, median, field); v != 5 || noisy {
		t.Errorf("one stolen slice replaced: %v noisy=%v", v, noisy)
	}
	// Too few quiet slices: all of them count and the phase is flagged.
	stolen := []slice{{EventsPS: 1, StealPct: 40}, {EventsPS: 2, StealPct: 40}, {EventsPS: 3}, {EventsPS: 4}, {EventsPS: 5}}
	if v, noisy := overSlices(stolen, 5, median, field); v != 3 || !noisy {
		t.Errorf("two stolen slices, no replacements: %v noisy=%v", v, noisy)
	}
	// A rate is the mean of its quiet slices: the slice a checkpoint stalled counts.
	stalled := []slice{{EventsPS: 10}, {EventsPS: 10}, {EventsPS: 0}, {EventsPS: 10}, {EventsPS: 1000, StealPct: 40}, {EventsPS: 10}}
	if v, noisy := overSlices(stalled, 5, mean, field); v != 8 || noisy {
		t.Errorf("mean over the quiet slices: %v noisy=%v, want 8", v, noisy)
	}
	// The read loop pools its slices' requests instead.
	p := phaseResult{
		slices: map[string][]slice{"read": {{}, {StealPct: 40}, {}, {}, {}, {}}},
		lats:   map[string][][]float64{"read": {{1, 1}, {99, 99, 99}, {1, 1}, {1, 2}, {2, 2}, {2, 2}}},
	}
	if v, noisy := p.pooled("read", 5, 0.5); v != 1 || noisy {
		t.Errorf("pooled median over the quiet slices: %v noisy=%v, want 1", v, noisy)
	}
	if _, noisy := p.pooled("read", 6, 0.5); !noisy {
		t.Error("five quiet slices of six wanted is noisy")
	}
}

func TestOverloadedRule(t *testing.T) {
	flat := []slice{{P50: 1}, {P50: 1.2}, {P50: 2.9}}
	if overloaded(flat) {
		t.Error("p50 1 → 2.9 ms is under the 3× limit")
	}
	if !overloaded([]slice{{P50: 1}, {P50: 2}, {P50: 3.1}}) {
		t.Error("a last-slice p50 over 3× the first is a growing queue")
	}
	if !overloaded([]slice{{P50: 1}, {P50: 1, LateMaxMS: 1200}, {P50: 1}}) {
		t.Error("a generator more than 1 s late is overloaded")
	}
	if !overloaded([]slice{{P50: 1}, {P50: math.Inf(1)}}) {
		t.Error("a slice whose median request failed is overloaded")
	}
	if !overloaded(nil) {
		t.Error("no slices is not a measurement")
	}
	stolen := maxStealPct + 15
	if overloaded([]slice{{P50: 1}, {P50: 1}, {P50: 1}, {P50: 1}, {P50: 9, LateMaxMS: 1200, StealPct: stolen}}) {
		t.Error("a queue that grew while the hypervisor stole the CPU is the host's, not the program's")
	}
	if overloaded([]slice{{P50: 1}, {P50: 1}, {P50: 1}, {P50: 9, StealPct: stolen}, {P50: 4, LateMaxMS: 1100}}) {
		t.Error("the slice after a noisy one drains its backlog and is not judged either")
	}
	if !overloaded([]slice{{P50: 1}, {P50: 1, StealPct: stolen}, {P50: 2}, {P50: 3}, {P50: 3.5}}) {
		t.Error("a queue still growing in quiet slices is overloaded whatever happened in between")
	}
}

func TestParseExposition(t *testing.T) {
	series := parseExposition(`# HELP counterd_store_apply_keys_total Keys counted.
# TYPE counterd_store_apply_keys_total counter
counterd_store_apply_keys_total{engine="bank"} 1.2345e+06
counterd_wal_fsync_seconds_bucket{le="0.001"} 7
counterd_wal_fsync_seconds_count 9
counterd_http_requests_total{endpoint="/inc",code="200"} 5
counterd_http_requests_total{endpoint="/estimate/{key}",code="200"} 6
counterd_label_with_space{note="a b"} 3
not a sample
`)
	if got := sumSeries(series, "counterd_store_apply_keys_total"); got != 1234500 {
		t.Errorf("apply_keys_total = %v", got)
	}
	if got := sumSeries(series, "counterd_wal_fsync_seconds_count"); got != 9 {
		t.Errorf("fsync count = %v", got)
	}
	if got := sumSeries(series, "counterd_http_requests_total"); got != 11 {
		t.Errorf("requests over both label sets = %v", got)
	}
	if got := sumSeries(series, "counterd_wal_fsync_seconds"); got != 0 {
		t.Errorf("a name must not match its _bucket and _count series: got %v", got)
	}
	if got := series[`counterd_label_with_space{note="a b"}`]; got != 3 {
		t.Errorf("label value with a space: %v", got)
	}
	if len(series) != 6 {
		t.Errorf("%d series parsed, want 6: %v", len(series), series)
	}
}

func TestParseProcFiles(t *testing.T) {
	ct, ok := parseCPULine("cpu  2076512 7618 844877 4244083 105021 0 279247 117935 0 0")
	if !ok || ct.steal != 117935 || ct.total != 2076512+7618+844877+4244083+105021+279247+117935 {
		t.Errorf("cpu line: %+v ok=%v", ct, ok)
	}
	if _, ok := parseCPULine("cpu0 1 2 3"); ok {
		t.Error("a per-core or short line is not the aggregate line")
	}
	if got := stealPct(cpuTimes{steal: 10, total: 1000}, cpuTimes{steal: 60, total: 2000}); got != 5 {
		t.Errorf("steal share = %v, want 5", got)
	}
	cpu, err := parseStatCPU("4242 (counter d) S 1 4242 4242 0 -1 4194560 900 0 0 0 150 50 0 0 20 0 9 0 100 1000 200")
	if err != nil || cpu != 2*time.Second {
		t.Errorf("stat cpu = %v, %v; want 2s (150+50 ticks)", cpu, err)
	}
	if _, err := parseStatCPU("garbage"); err == nil {
		t.Error("a malformed stat line must be an error")
	}
	mb, err := parseVmHWM("Name:\tcounterd\nVmPeak:\t  999 kB\nVmHWM:\t   30720 kB\nVmRSS:\t 100 kB\n")
	if err != nil || mb != 30 {
		t.Errorf("VmHWM = %v MB, %v; want 30", mb, err)
	}
}

func TestFlagHandling(t *testing.T) {
	o, err := parseOptions([]string{"--workload", "ring3_wire", "--seed", "7", "--seconds", "12", "--trace", "1"}, io.Discard)
	if err != nil || o.workload != "ring3_wire" || o.seed != 7 || o.seconds != 12 || !o.trace {
		t.Errorf("driver-style arguments: %+v, %v", o, err)
	}
	if o, err = parseOptions([]string{"--trace", "0", "--workload", "wire_bank"}, io.Discard); err != nil || o.trace || o.workload != "wire_bank" {
		t.Errorf("--trace 0 first: %+v, %v", o, err)
	}
	if o, err = parseOptions([]string{"-trace"}, io.Discard); err != nil || !o.trace || len(o.selected()) != len(specs) {
		t.Errorf("bare -trace over every workload: %+v, %v", o, err)
	}
	if o, err = parseOptions(nil, io.Discard); err != nil || o.seed != 1 || o.seconds != runSeconds || o.trace || o.aa || o.list {
		t.Errorf("defaults: %+v, %v", o, err)
	}
	for _, bad := range [][]string{{"-workload", "nope"}, {"-seconds", "0"}, {"-seconds", "61"}, {"stray"}, {"-seed", "x"}} {
		if _, err := parseOptions(bad, io.Discard); err == nil {
			t.Errorf("%v: want an error", bad)
		}
	}
	if o, err = parseOptions([]string{"-list"}, io.Discard); err != nil || !o.list {
		t.Errorf("-list: %+v, %v", o, err)
	}
}

func TestWorkloadTable(t *testing.T) {
	seen := map[string]bool{}
	for _, sp := range specs {
		if seen[sp.name] || len(sp.why) > 200 || strings.Contains(sp.why, "\n") || sp.pacedRate <= 0 || sp.batch <= 0 || sp.preload <= 0 {
			t.Errorf("workload %q: duplicate, or why of %d chars, or a zero field", sp.name, len(sp.why))
		}
		seen[sp.name] = true
		if got, ok := findSpec(sp.name); !ok || got.name != sp.name {
			t.Errorf("findSpec(%q) = %v, %v", sp.name, got.name, ok)
		}
	}
	if len(specs) != 4 {
		t.Errorf("%d workloads, want the four the issue names", len(specs))
	}
}

// BENCHMARK.json is generated from the tables; editing one without the
// other would make the driver gate something the harness does not print.
func TestBenchmarkFileIsDescribeOutput(t *testing.T) {
	onDisk, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(onDisk, describe()) {
		t.Error("BENCHMARK.json differs from -describe; regenerate it with: go run -C bench . -describe > BENCHMARK.json")
	}
}

func TestPoolIsAFunctionOfTheSeed(t *testing.T) {
	sp := spec{n: 1000, zipf: 1.05, batch: 16, transport: "http"}
	a, b, c := genPool(sp, 7), genPool(sp, 7), genPool(sp, 8)
	if len(a.keys) != 1<<16 || len(a.bodies) != len(a.keys) {
		t.Fatalf("pool of %d batches, %d bodies", len(a.keys), len(a.bodies))
	}
	same, differ := true, false
	for i := range a.keys[:64] {
		for j := range a.keys[i] {
			same = same && a.keys[i][j] == b.keys[i][j]
			differ = differ || a.keys[i][j] != c.keys[i][j]
		}
	}
	if !same || !differ {
		t.Errorf("same seed same keys: %v; other seed other keys: %v", same, differ)
	}
	if want := `{"keys":[`; !strings.HasPrefix(string(a.bodies[0]), want) {
		t.Errorf("body %q", a.bodies[0])
	}
	a.acked[0].Add(2)
	a.acked[5].Add(1)
	truth, acks, events := a.tally(sp.n)
	if acks != 3 || events != 48 {
		t.Errorf("tally: %d acks, %d events", acks, events)
	}
	sum := uint32(0)
	for _, c := range truth {
		sum += c
	}
	if sum != 48 {
		t.Errorf("per-key counts add up to %d, want 48", sum)
	}
	if f := a.fresh(); f.acked[0].Load() != 0 || &f.keys[0][0] != &a.keys[0][0] {
		t.Error("fresh: same requests, empty tally")
	}
}

// shortSink acknowledges one key fewer than it was sent: the server fault
// the applied-count gate exists for.
type shortSink struct{ noopSink }

func (shortSink) Batch(keys []int) (int, error) { return len(keys) - 1, nil }

func TestAckMustCountEveryKey(t *testing.T) {
	for _, tc := range []struct {
		name    string
		short   bool
		wantErr bool
	}{{"honest", false, false}, {"short", true, true}} {
		var sink wire.Sink = noopSink{}
		if tc.short {
			sink = shortSink{}
		}
		addr, stop := serveWire(sink, 1000)
		sp := spec{n: 1000, zipf: 1.05, batch: 16, transport: "wire", wire: true}
		ld, err := newLoad(sp, genPool(sp, 1), &fleet{nodes: []*node{{wireAddr: addr}}}, 1)
		if err != nil {
			t.Fatal(err)
		}
		n, err := ld.write(0)
		if (err != nil) != tc.wantErr {
			t.Errorf("%s server: write = %d, %v", tc.name, n, err)
		}
		if _, acks, _ := ld.pool.tally(sp.n); (acks == 0) != tc.wantErr {
			t.Errorf("%s server: %d batches tallied", tc.name, acks)
		}
		ld.close()
		stop()
	}
	// And a run with a failed gate is not correct, whatever else passed.
	r := &result{}
	r.check("a", true, "")
	if !r.correct() {
		t.Error("one passing gate is a correct run")
	}
	r.check("no_failed_requests", false, "ack applied 15 of a 16-key batch")
	if r.correct() {
		t.Error("a failed gate must make the run incorrect")
	}
	if (&result{}).correct() {
		t.Error("a run that checked nothing is not correct")
	}
}

func TestSelfTimesAddUpToTheRoot(t *testing.T) {
	spans := []span{
		{ID: 1, Parent: 0, Request: 1, Name: "request", StartNS: 0, EndNS: 1000},
		{ID: 2, Parent: 1, Request: 1, Name: "server.Store.Apply", StartNS: 200, EndNS: 800},
		{ID: 3, Parent: 2, Request: 1, Name: "wal", StartNS: 200, EndNS: 300, Shadow: true},
		{ID: 4, Parent: 2, Request: 1, Name: "engine", StartNS: 300, EndNS: 700, Shadow: true},
	}
	sum := summarize(spans)
	if sum.SelfOverRoot != 1 || sum.Orphans != 0 || sum.RootMS != 1000/1e6 {
		t.Errorf("summary %+v", sum)
	}
	if got := sum.SelfMS["server.Store.Apply"]; got != 100/1e6 {
		t.Errorf("Apply self time %v ms, want 100 ns", got)
	}
	if got := sum.SelfMS["engine (shadow)"]; got != 400/1e6 {
		t.Errorf("shadow engine self time %v ms, want 400 ns", got)
	}
	// A shadow child that outlasts its parent cannot make a negative self time.
	spans[3].EndNS = 1500
	if got := summarize(spans).SelfMS["server.Store.Apply"]; got != 0 {
		t.Errorf("Apply self time %v, want 0 when its children cover it", got)
	}
	spans = append(spans, span{ID: 5, Parent: 99, Name: "lost"})
	if got := summarize(spans).Orphans; got != 1 {
		t.Errorf("%d orphans, want 1", got)
	}
}
