package wire

import (
	"bytes"
	"encoding/json"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"sort"
	"testing"
	"time"
)

// zipfBatch builds a skewed batch of size events over [0, n) — the same
// shape the paper's workloads use, so encode/decode numbers reflect the
// coalescing the protocol was designed around.
func zipfBatch(size, n int, seed int64) []int {
	rng := rand.New(rand.NewSource(seed))
	z := rand.NewZipf(rng, 1.2, 1, uint64(n-1))
	keys := make([]int, size)
	for i := range keys {
		keys[i] = int(z.Uint64())
	}
	return keys
}

func BenchmarkBatchEncode(b *testing.B) {
	keys := zipfBatch(4096, 100_000, 1)
	var payload []byte
	var scratch []int
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		payload, scratch = AppendBatch(payload[:0], keys, scratch)
	}
	b.ReportMetric(float64(len(keys))*float64(b.N)/b.Elapsed().Seconds(), "events/s")
	b.ReportMetric(float64(len(payload))/float64(len(keys)), "bytes/event")
}

func BenchmarkBatchDecode(b *testing.B) {
	keys := zipfBatch(4096, 100_000, 1)
	payload := EncodeBatch(keys)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := DecodeBatch(payload, 1<<16, 0); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(len(keys))*float64(b.N)/b.Elapsed().Seconds(), "events/s")
}

// countSink is the no-op ingest target for transport benchmarks: both the
// HTTP and wire rows below pay the same (zero) application cost, so the
// difference between them is pure transport overhead.
type countSink struct{}

func (countSink) Batch(keys []int) (int, error) { return len(keys), nil }
func (countSink) Repl(keys []int) (int, error)  { return len(keys), nil }

// reportP99 sorts per-request latencies and reports the 99th percentile.
func reportP99(b *testing.B, lat []time.Duration) {
	if len(lat) == 0 {
		return
	}
	sort.Slice(lat, func(i, j int) bool { return lat[i] < lat[j] })
	p99 := lat[len(lat)*99/100]
	b.ReportMetric(float64(p99.Nanoseconds())/1e3, "p99-µs")
}

// BenchmarkServeWire measures batch ingest over the binary wire protocol on
// a loopback connection: one persistent conn, 1024-event Zipf batches,
// synchronous acks. Compare against BenchmarkServeHTTPJSON — same sink, same
// batches, same loopback — for the transport-only delta.
func BenchmarkServeWire(b *testing.B) {
	addr, stop := startWireServer(b, countSink{}, ServerConfig{})
	defer stop()
	c, err := Dial(addr, 5*time.Second)
	if err != nil {
		b.Fatal(err)
	}
	defer c.Close()

	keys := zipfBatch(1024, 100_000, 7)
	lat := make([]time.Duration, 0, b.N)
	b.SetBytes(int64(len(keys)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		start := time.Now()
		applied, err := c.SendBatch(keys)
		lat = append(lat, time.Since(start))
		if err != nil {
			b.Fatal(err)
		}
		if applied != len(keys) {
			b.Fatalf("applied %d, want %d", applied, len(keys))
		}
	}
	b.StopTimer()
	b.ReportMetric(float64(len(keys))*float64(b.N)/b.Elapsed().Seconds(), "events/s")
	reportP99(b, lat)
}

// BenchmarkServeHTTPJSON is the HTTP/1.1 + JSON twin of BenchmarkServeWire:
// the same 1024-event batches POSTed as {"keys":[...]} bodies over a
// keep-alive connection to the same no-op sink.
func BenchmarkServeHTTPJSON(b *testing.B) {
	sink := countSink{}
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		var req struct {
			Keys []int `json:"keys"`
		}
		if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		applied, _ := sink.Batch(req.Keys)
		json.NewEncoder(w).Encode(map[string]int{"applied": applied})
	}))
	defer srv.Close()

	keys := zipfBatch(1024, 100_000, 7)
	body, err := json.Marshal(map[string][]int{"keys": keys})
	if err != nil {
		b.Fatal(err)
	}
	client := srv.Client()
	lat := make([]time.Duration, 0, b.N)
	b.SetBytes(int64(len(keys)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		start := time.Now()
		resp, err := client.Post(srv.URL+"/v1/inc", "application/json", bytes.NewReader(body))
		if err != nil {
			b.Fatal(err)
		}
		var out struct {
			Applied int `json:"applied"`
		}
		if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
			b.Fatal(err)
		}
		resp.Body.Close()
		lat = append(lat, time.Since(start))
		if out.Applied != len(keys) {
			b.Fatalf("applied %d, want %d", out.Applied, len(keys))
		}
	}
	b.StopTimer()
	b.ReportMetric(float64(len(keys))*float64(b.N)/b.Elapsed().Seconds(), "events/s")
	reportP99(b, lat)
}
