package main

import (
	"bytes"
	"encoding/json"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"sort"
	"testing"
	"time"

	"repro/internal/server"
	"repro/internal/stream"
	"repro/internal/wire"
	"repro/internal/xrand"
)

// daemonArgs builds a counterd command line rooted in dir.
func daemonArgs(dir string, extra ...string) []string {
	return append([]string{
		"-dir", dir, "-n", "3000", "-shards", "16", "-partitions", "8",
		"-fsync", "off", "-seed", "99",
	}, extra...)
}

// openDaemon runs the daemon's exact flag-to-store plumbing and serves its
// HTTP surface on a test listener.
func openDaemon(t *testing.T, args []string) (*server.Store, *httptest.Server) {
	t.Helper()
	o, err := parseFlags(args)
	if err != nil {
		t.Fatalf("parse flags: %v", err)
	}
	st, err := openStore(o)
	if err != nil {
		t.Fatalf("open store: %v", err)
	}
	return st, httptest.NewServer(server.Handler(st))
}

func fetchSnapshot(t *testing.T, srv *httptest.Server) []byte {
	t.Helper()
	resp, err := http.Get(srv.URL + "/snapshot")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	blob, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return blob
}

func healthz(t *testing.T, srv *httptest.Server) server.Stats {
	t.Helper()
	resp, err := http.Get(srv.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var s server.Stats
	if err := json.NewDecoder(resp.Body).Decode(&s); err != nil {
		t.Fatal(err)
	}
	return s
}

// -listen-wire is the wire listener's one spelling (the -wire-listen and
// -algo aliases are gone); -advertise-wire derives from the advertised host
// + wire port when not given.
func TestWireFlagAndAdvertise(t *testing.T) {
	o, err := parseFlags([]string{"-listen-wire", ":9347"})
	if err != nil {
		t.Fatal(err)
	}
	if o.wireListen != ":9347" {
		t.Fatalf("wireListen = %q", o.wireListen)
	}
	for _, gone := range []string{"-wire-listen", "-algo"} {
		if _, err := parseFlags([]string{gone, "x"}); err == nil {
			t.Fatalf("removed alias %s still parses", gone)
		}
	}
	if got := deriveWireAdvertise("http://10.0.0.7:8347", ":9347"); got != "10.0.0.7:9347" {
		t.Fatalf("derived wire advertise %q, want 10.0.0.7:9347", got)
	}
	if got := deriveWireAdvertise("http://127.0.0.1:8347", "10.0.0.9:9347"); got != "10.0.0.9:9347" {
		t.Fatalf("explicit wire host lost: %q", got)
	}
}

// TestWireDaemonIngest drives the daemon's wire path end to end: events
// shipped as one BATCH frame must land in the same WAL-stage+apply path as
// HTTP ingest (identical /snapshot as the same keys POSTed), /healthz must
// report the wire listener, and a malformed key must answer a 400-coded
// ERROR frame without poisoning the connection.
func TestWireDaemonIngest(t *testing.T) {
	httpDir, wireDir := t.TempDir(), t.TempDir()
	keys := make([]int, 0, 3*256)
	src := stream.NewZipf(3000, 1.1, xrand.NewSeeded(7))
	for i := 0; i < cap(keys); i++ {
		keys = append(keys, int(src.Next()))
	}
	// The wire codec ships batches sorted+coalesced, so the daemon applies
	// them in key order; pre-sort so the HTTP reference applies the exact
	// same sequence (apply order steers the seeded probabilistic engines).
	sort.Ints(keys)

	// Reference: the same batch over HTTP.
	stHTTP, srvHTTP := openDaemon(t, daemonArgs(httpDir))
	defer srvHTTP.Close()
	defer stHTTP.Close(false)
	body, _ := json.Marshal(map[string][]int{"keys": keys})
	resp, err := http.Post(srvHTTP.URL+"/inc", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	want := fetchSnapshot(t, srvHTTP)

	// Same batch over the wire into an identically-shaped store.
	o, err := parseFlags(daemonArgs(wireDir, "-listen-wire", "127.0.0.1:0"))
	if err != nil {
		t.Fatal(err)
	}
	st, err := openStore(o)
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close(false)
	srv := httptest.NewServer(server.Handler(st))
	defer srv.Close()
	ws := wire.NewServer(storeSink{st}, wire.ServerConfig{
		MaxBatch:  o.maxBatch,
		MaxKey:    st.Len(),
		ErrorCode: server.StatusFor,
	})
	ln, err := net.Listen("tcp", o.wireListen)
	if err != nil {
		t.Fatal(err)
	}
	go ws.Serve(ln)
	defer ws.Close()
	st.SetWireInfo(ln.Addr().String(), wire.ProtocolVersion)

	if s := healthz(t, srv); s.WireAddr != ln.Addr().String() || s.WireProto != wire.ProtocolVersion {
		t.Fatalf("healthz wire info: addr %q proto %d", s.WireAddr, s.WireProto)
	}

	conn, err := wire.Dial(ln.Addr().String(), 2*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	// A key past -n is a 400 on a healthy stream, exactly like HTTP.
	if _, err := conn.SendBatch([]int{999_999}); err == nil {
		t.Fatal("out-of-range key accepted over the wire")
	}
	applied, err := conn.SendBatch(keys)
	if err != nil {
		t.Fatal(err)
	}
	if applied != len(keys) {
		t.Fatalf("applied %d, want %d", applied, len(keys))
	}
	if got := fetchSnapshot(t, srv); !bytes.Equal(got, want) {
		t.Fatal("wire-ingested /snapshot differs from the HTTP-ingested one")
	}
}

// TestCsurosDaemonCheckpointRestart drives -alg csuros end to end through
// the daemon's own plumbing: flags → bank.Parse → store → HTTP, then a
// mid-stream checkpoint, a crash (no final checkpoint), and a restart that
// must serve byte-identical /snapshot output — the Csűrös generator states
// ride the checkpoint exactly like Morris ones.
func TestCsurosDaemonCheckpointRestart(t *testing.T) {
	dir := t.TempDir()
	args := daemonArgs(dir, "-alg", "csuros", "-width", "12", "-mantissa", "6")
	st, srv := openDaemon(t, args)

	if s := healthz(t, srv); s.Algorithm != "csuros" || s.WidthBits != 12 {
		t.Fatalf("daemon serves %s/%d-bit, want csuros/12", s.Algorithm, s.WidthBits)
	}
	src := stream.NewZipf(3000, 1.1, xrand.NewSeeded(5))
	post := func(count int) {
		t.Helper()
		keys := make([]int, 256)
		for i := 0; i < count; i++ {
			for j := range keys {
				keys[j] = int(src.Next())
			}
			body, _ := json.Marshal(map[string][]int{"keys": keys})
			resp, err := http.Post(srv.URL+"/inc", "application/json", bytes.NewReader(body))
			if err != nil {
				t.Fatal(err)
			}
			resp.Body.Close()
			if resp.StatusCode != http.StatusOK {
				t.Fatalf("inc: status %d", resp.StatusCode)
			}
		}
	}
	post(40)
	if err := st.Checkpoint(); err != nil {
		t.Fatalf("checkpoint: %v", err)
	}
	post(40) // WAL suffix past the checkpoint
	want := fetchSnapshot(t, srv)
	srv.Close()
	if err := st.Close(false); err != nil { // crash: no final checkpoint
		t.Fatal(err)
	}

	// Restart 1: same flags. Recovery = checkpoint + WAL replay.
	st2, srv2 := openDaemon(t, args)
	stats := healthz(t, srv2)
	if stats.Algorithm != "csuros" || stats.RecoveredFrom != "snapshot" || stats.ReplayedRecords != 40 {
		t.Fatalf("recovery stats: %+v", stats)
	}
	if got := fetchSnapshot(t, srv2); !bytes.Equal(got, want) {
		t.Fatal("csuros /snapshot not byte-identical across restart")
	}
	srv2.Close()
	if err := st2.Close(false); err != nil {
		t.Fatal(err)
	}

	// Restart 2: DEFAULT flags (-alg morris). The checkpoint on disk is the
	// source of truth, so the daemon must come back as csuros regardless.
	st3, srv3 := openDaemon(t, daemonArgs(dir))
	defer srv3.Close()
	defer st3.Close(false)
	if s := healthz(t, srv3); s.Algorithm != "csuros" || s.WidthBits != 12 {
		t.Fatalf("restart with default flags lost the on-disk algorithm: %+v", s)
	}
	if got := fetchSnapshot(t, srv3); !bytes.Equal(got, want) {
		t.Fatal("csuros /snapshot diverged after flagless restart")
	}
}

// TestTopKDaemonFlags drives -engine topk through the daemon plumbing and
// checks the restart keeps the engine kind.
func TestTopKDaemonFlags(t *testing.T) {
	dir := t.TempDir()
	args := daemonArgs(dir, "-engine", "topk", "-topk-cap", "16")
	st, srv := openDaemon(t, args)
	if s := healthz(t, srv); s.Engine != "topk" || s.Shards != 8 {
		t.Fatalf("daemon serves %s/%d shards, want topk/8", s.Engine, s.Shards)
	}
	keys := []int{1, 1, 1, 2, 2, 9}
	body, _ := json.Marshal(map[string][]int{"keys": keys})
	resp, err := http.Post(srv.URL+"/inc", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	resp, err = http.Get(srv.URL + "/topk?k=2")
	if err != nil {
		t.Fatal(err)
	}
	var out struct {
		TopK []struct {
			Key int `json:"key"`
		} `json:"topk"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if len(out.TopK) != 2 || out.TopK[0].Key != 1 {
		t.Fatalf("topk: %+v", out)
	}
	want := fetchSnapshot(t, srv)
	srv.Close()
	if err := st.Close(false); err != nil {
		t.Fatal(err)
	}
	// Restart with default flags: the topk checkpoint... there is no
	// checkpoint (crash close), so recovery is seed + WAL — the flags must
	// still say topk for a fresh-construction replay. With explicit args
	// the daemon replays to identical bytes.
	st2, srv2 := openDaemon(t, args)
	defer srv2.Close()
	defer st2.Close(false)
	if got := fetchSnapshot(t, srv2); !bytes.Equal(got, want) {
		t.Fatal("topk /snapshot not byte-identical across restart")
	}
}

// TestWindowDaemonFlags drives -engine window through the daemon plumbing:
// bucket/window flags shape the ring, idle AdvanceWindow expires traffic,
// and a crash restart replays the logged ticks to byte-identical state.
func TestWindowDaemonFlags(t *testing.T) {
	dir := t.TempDir()
	args := daemonArgs(dir, "-engine", "window", "-alg", "exact", "-width", "20",
		"-bucket", "40ms", "-window", "160ms")
	st, srv := openDaemon(t, args)
	if s := healthz(t, srv); s.Engine != "window" || s.WindowBuckets != 4 ||
		s.BucketNanos != int64(40*time.Millisecond) {
		t.Fatalf("daemon window shape: %+v", s)
	}
	keys := []int{1, 1, 1, 2, 2, 9}
	body, _ := json.Marshal(map[string][]int{"keys": keys})
	resp, err := http.Post(srv.URL+"/inc", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	resp, err = http.Get(srv.URL + "/topk?k=2&window=160ms")
	if err != nil {
		t.Fatal(err)
	}
	var out struct {
		TopK []struct {
			Key int `json:"key"`
		} `json:"topk"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if len(out.TopK) != 2 || out.TopK[0].Key != 1 {
		t.Fatalf("windowed topk: %+v", out)
	}

	// Let the whole window elapse, tick idly, and the traffic expires.
	time.Sleep(250 * time.Millisecond)
	if err := st.AdvanceWindow(); err != nil {
		t.Fatal(err)
	}
	resp, err = http.Get(srv.URL + "/estimate/1?window=160ms")
	if err != nil {
		t.Fatal(err)
	}
	var est struct {
		Estimate float64 `json:"estimate"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&est); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if est.Estimate != 0 {
		t.Fatalf("estimate after expiry = %v, want 0", est.Estimate)
	}

	want := fetchSnapshot(t, srv)
	srv.Close()
	if err := st.Close(false); err != nil {
		t.Fatal(err)
	}
	// Crash restart: seed + WAL replay (ticks included) must reproduce the
	// same bytes even though the wall clock has moved on.
	st2, srv2 := openDaemon(t, args)
	defer srv2.Close()
	defer st2.Close(false)
	if got := fetchSnapshot(t, srv2); !bytes.Equal(got, want) {
		t.Fatal("window /snapshot not byte-identical across restart")
	}
}

// Register flags the algorithms reject are an open error the daemon logs
// and exits on, not a panic with a goroutine dump.
func TestBadRegisterFlagsRejected(t *testing.T) {
	for _, tc := range []struct {
		flags []string
		want  string
	}{
		{[]string{"-a", "2"}, "bank: morris a = 2 out of (0, 1]"},
		{[]string{"-width", "70"}, "bank: morris width 70 out of [1, 62]"},
		{[]string{"-alg", "csuros", "-width", "14", "-mantissa", "20"}, "bank: csuros mantissa 20 out of [1, 14)"},
	} {
		o, err := parseFlags(daemonArgs(t.TempDir(), tc.flags...))
		if err != nil {
			t.Fatalf("%v: parse flags: %v", tc.flags, err)
		}
		st, err := openStore(o)
		if err == nil {
			st.Close(false)
			t.Fatalf("%v: store opened", tc.flags)
		}
		if err.Error() != tc.want {
			t.Fatalf("%v: error %q, want %q", tc.flags, err, tc.want)
		}
	}
}
