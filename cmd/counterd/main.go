// Command counterd serves a durable sketch engine over HTTP: the paper's
// motivating analytics system (millions of approximate counters in a few
// bits each) as a restartable network daemon, with the engine pluggable —
// the Morris/Csűrös/exact register bank by default, the cluster-wide
// heavy-hitters (top-k) engine with -engine topk, the sliding-window
// engine with -engine window (bucket width -bucket, span -window), the
// HLL-style unique-count engine with -engine distinct (precision
// -distinct-precision; add -window for "uniques in the last N minutes"),
// or the AMS second-frequency-moment engine with -engine f2 (-f2-rows,
// -f2-cols, same optional -window).
//
// Every increment batch is WAL-logged before it is applied and acknowledged,
// so a kill -9 at any moment loses nothing that was acked: on restart the
// daemon loads its newest checkpoint (a compressed snapcodec snapshot that
// includes the engine's generator states) and replays the WAL suffix,
// rebuilding bit-identical state. A background loop checkpoints every
// -checkpoint interval, truncating the log so recovery stays fast.
//
// Endpoints (see internal/server):
//
//	POST /inc            {"key": 5} or {"keys": [1, 2, 2, 7]}
//	GET  /estimate/{key} (&window=5m on the window engine)
//	GET  /estimates      (&window=5m on the window engine)
//	GET  /topk?k=10      ranked heavy hitters (&partition=p for one partition,
//	                     &window=5m on the window engine)
//	GET  /distinct       unique-key cardinality (distinct engine; &partition=p,
//	                     &window=5m on the windowed flavor)
//	GET  /f2             second frequency moment (f2 engine; same parameters)
//	GET  /snapshot       compressed snapshot stream (feed to a peer's /merge)
//	GET  /snapshot/{p}   one partition's compressed snapshot
//	POST /merge          ingest a peer snapshot (disjoint-stream join)
//	POST /mergemax       ingest a replica snapshot (max join)
//	GET  /healthz
//
// With -cluster the daemon becomes one member of a replicated ring
// (internal/cluster): nodes discover each other via -join gossip, every
// increment is routed to its partition's replicas with durable hinted
// handoff, and a background anti-entropy loop keeps replicas byte-identical
// through crashes. The cluster admin API (/cluster/gossip, /cluster/ring,
// /cluster/repl, /cluster/phash/{p}, /cluster/info, /cluster/rebalance,
// /cluster/handoff/{p}) mounts next to the store API, and POST /inc becomes
// the ring-coordinated write path. Ring changes hand partitions off through
// the rebalance subsystem — a joining node pulls its partitions' history
// before serving them, a leaving one surrenders its copies only after every
// new owner confirms. SIGTERM drains the replication outboxes before exit;
// with -decommission it first leaves the ring and streams every held
// partition to its new owners. See docs/CLUSTER.md, docs/OPERATIONS.md and
// docs/ENGINES.md.
//
// Example (single node):
//
//	counterd -addr :8347 -dir ./counterd-data -n 1000000 -shards 256
//	curl -X POST localhost:8347/inc -d '{"keys":[1,2,3,2]}'
//	curl localhost:8347/estimate/2
//
// Example (heavy-hitters engine):
//
//	counterd -addr :8347 -dir ./topk-data -n 1000000 -engine topk -topk-cap 256
//	curl 'localhost:8347/topk?k=10'
//
// Example (sliding-window engine, 10 minutes of 1-minute buckets):
//
//	counterd -addr :8347 -dir ./win-data -n 1000000 -engine window -bucket 1m -window 10m
//	curl 'localhost:8347/topk?k=10&window=5m'
//	curl 'localhost:8347/estimate/2?window=1m'
//
// Example (unique counting, 10-minute sliding window):
//
//	counterd -addr :8347 -dir ./uniq-data -n 1000000 -engine distinct -window 10m
//	curl localhost:8347/distinct
//	curl 'localhost:8347/distinct?window=5m'
//
// Example (local 3-node ring, replication factor 2):
//
//	counterd -addr :8347 -dir ./d0 -cluster
//	counterd -addr :8348 -dir ./d1 -cluster -join http://localhost:8347
//	counterd -addr :8349 -dir ./d2 -cluster -join http://localhost:8347
//	countertool bench-cluster -nodes http://localhost:8347 -events 1000000
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log"
	"net"
	"net/http"
	"net/url"
	"os"
	"os/signal"
	"path/filepath"
	"strings"
	"syscall"
	"time"

	"repro/internal/cluster"
	"repro/internal/server"
	"repro/internal/wal"
	"repro/internal/wire"
)

// options is the parsed daemon configuration — split from main so tests can
// drive the same flag-to-store plumbing the binary uses.
type options struct {
	addr       string
	dir        string
	n          int
	shards     int
	alg        string
	a          float64
	width      int
	mantissa   int
	seed       uint64
	engine     string
	topkCap    int
	distinctP  int
	f2Rows     int
	f2Cols     int
	bucket     time.Duration
	window     time.Duration
	windowSet  bool // -window or -bucket given explicitly (windowed distinct/f2)
	checkpoint time.Duration
	deltaFrac  float64
	deltaChain int
	segBytes   int64
	maxBatch   int
	finalCkpt  bool
	fsync      string
	fsyncEvery time.Duration
	partitions int

	wireListen    string
	advertiseWire string

	clusterOn    bool
	advertise    string
	join         string
	rf           int
	vnodes       int
	hintDir      string
	hintFsync    string
	gossipEvery  time.Duration
	aeEvery      time.Duration
	rebalEvery   time.Duration
	drainTimeout time.Duration
	decommission bool
}

// parseFlags parses the daemon's command line.
func parseFlags(args []string) (*options, error) {
	o := &options{}
	fs := flag.NewFlagSet("counterd", flag.ContinueOnError)
	fs.StringVar(&o.addr, "addr", ":8347", "HTTP listen address")
	fs.StringVar(&o.dir, "dir", "./counterd-data", "data directory (WAL segments + checkpoints)")
	fs.IntVar(&o.n, "n", 1_000_000, "number of keys (ignored when the data dir has a checkpoint)")
	fs.IntVar(&o.shards, "shards", 256, "lock stripes (rounded to a power of two; bank engine)")
	fs.StringVar(&o.alg, "alg", "morris", "register algorithm: morris | csuros | exact")
	fs.Float64Var(&o.a, "a", 0.005, "Morris base parameter")
	fs.IntVar(&o.width, "width", 14, "register width in bits")
	fs.IntVar(&o.mantissa, "mantissa", 8, "Csűrös mantissa bits")
	fs.Uint64Var(&o.seed, "seed", 42, "deterministic replay seed")
	fs.StringVar(&o.engine, "engine", "bank", "sketch engine: bank | topk | window | distinct | f2 (see docs/ENGINES.md)")
	fs.IntVar(&o.topkCap, "topk-cap", 64, "top-k slots per partition (topk engine)")
	fs.IntVar(&o.distinctP, "distinct-precision", 12, "HLL precision p: 2^p registers per partition (distinct engine)")
	fs.IntVar(&o.f2Rows, "f2-rows", 5, "AMS estimator rows — the median arity (f2 engine)")
	fs.IntVar(&o.f2Cols, "f2-cols", 64, "AMS estimator columns — the mean arity (f2 engine)")
	fs.DurationVar(&o.bucket, "bucket", time.Minute, "time-bucket width (windowed engines)")
	fs.DurationVar(&o.window, "window", 8*time.Minute, "sliding-window span, rounded up to whole buckets (window engine always; distinct/f2 become windowed when -window or -bucket is given)")
	fs.DurationVar(&o.checkpoint, "checkpoint", 30*time.Second, "checkpoint cadence (0 disables the loop)")
	fs.Float64Var(&o.deltaFrac, "delta-fraction", 0, "max dirty-block fraction for a delta checkpoint (0 = default 0.5; negative = always full)")
	fs.IntVar(&o.deltaChain, "max-delta-chain", 0, "consecutive delta checkpoints before a forced full (0 = default 8)")
	fs.Int64Var(&o.segBytes, "segbytes", 64<<20, "WAL segment rotation size")
	fs.IntVar(&o.maxBatch, "maxbatch", 1<<16, "largest accepted increment batch")
	fs.BoolVar(&o.finalCkpt, "final-checkpoint", true, "checkpoint on graceful shutdown")
	fs.StringVar(&o.fsync, "fsync", "always", "WAL durability policy: always | interval | off")
	fs.DurationVar(&o.fsyncEvery, "fsync-interval", 100*time.Millisecond, "background fsync cadence with -fsync=interval")
	fs.IntVar(&o.partitions, "partitions", 64, "key-space partitions (unit of cluster replication)")

	fs.StringVar(&o.wireListen, "listen-wire", "", "binary wire-protocol listen address, e.g. :9347 (empty = HTTP only; see docs/FORMAT.md)")
	fs.StringVar(&o.advertiseWire, "advertise-wire", "", "wire address peers reach this node at (default: advertised host + -listen-wire port)")

	fs.BoolVar(&o.clusterOn, "cluster", false, "join a replicated cluster (see docs/CLUSTER.md)")
	fs.StringVar(&o.advertise, "advertise", "", "base URL peers reach this node at (default derived from -addr)")
	fs.StringVar(&o.join, "join", "", "comma-separated peer base URLs to gossip with at startup")
	fs.IntVar(&o.rf, "rf", 2, "replication factor (cluster mode)")
	fs.IntVar(&o.vnodes, "vnodes", cluster.DefaultVNodes, "virtual nodes per member on the ring")
	fs.StringVar(&o.hintDir, "hintdir", "", "hinted-handoff directory (default <dir>/hints)")
	fs.StringVar(&o.hintFsync, "hint-fsync", "off", "hinted-handoff log fsync policy: always | interval | off")
	fs.DurationVar(&o.gossipEvery, "gossip", time.Second, "gossip heartbeat cadence")
	fs.DurationVar(&o.aeEvery, "antientropy", 5*time.Second, "anti-entropy cadence")
	fs.DurationVar(&o.rebalEvery, "rebalance", 500*time.Millisecond, "rebalance step cadence (cluster mode)")
	fs.DurationVar(&o.drainTimeout, "drain-timeout", 30*time.Second, "graceful-shutdown budget for flushing outboxes (and the handoff on -decommission)")
	fs.BoolVar(&o.decommission, "decommission", false, "on SIGTERM/SIGINT, leave the ring and hand every partition off before exiting (cluster mode; see docs/OPERATIONS.md)")
	if err := fs.Parse(args); err != nil {
		return nil, err
	}
	// The window flags have non-zero defaults, so "windowed distinct/f2"
	// needs explicit-set detection rather than a zero-value sentinel.
	fs.Visit(func(f *flag.Flag) {
		if f.Name == "window" || f.Name == "bucket" {
			o.windowSet = true
		}
	})
	return o, nil
}

// openStore turns parsed options into an open durable store — the daemon's
// entire flag-to-engine plumbing, shared with the integration tests.
func openStore(o *options) (*server.Store, error) {
	alg, err := server.ParseAlgorithm(o.alg, o.a, o.width, o.mantissa)
	if err != nil {
		return nil, err
	}
	policy, err := wal.ParseSyncPolicy(o.fsync)
	if err != nil {
		return nil, err
	}
	// The window engine is always windowed; distinct and f2 become windowed
	// ("uniques in the last N minutes") only when the operator asked for a
	// window explicitly — their flags default to the cumulative flavor.
	buckets := 0
	if o.engine == "window" || ((o.engine == "distinct" || o.engine == "f2") && o.windowSet) {
		if o.bucket <= 0 {
			return nil, fmt.Errorf("counterd: non-positive -bucket %v", o.bucket)
		}
		if o.window < o.bucket {
			return nil, fmt.Errorf("counterd: -window %v narrower than -bucket %v", o.window, o.bucket)
		}
		buckets = int((o.window + o.bucket - 1) / o.bucket)
	}
	return server.Open(server.Config{
		Dir:               o.dir,
		N:                 o.n,
		Shards:            o.shards,
		Alg:               alg,
		Seed:              o.seed,
		Engine:            o.engine,
		TopKCap:           o.topkCap,
		DistinctPrecision: o.distinctP,
		F2Rows:            o.f2Rows,
		F2Cols:            o.f2Cols,
		Buckets:           buckets,
		BucketDur:         o.bucket,
		SegmentBytes:      o.segBytes,
		MaxBatch:          o.maxBatch,
		DeltaFraction:     o.deltaFrac,
		MaxDeltaChain:     o.deltaChain,
		Sync:              policy,
		SyncInterval:      o.fsyncEvery,
		Partitions:        o.partitions,
	})
}

func main() {
	o, err := parseFlags(os.Args[1:])
	if err != nil {
		if errors.Is(err, flag.ErrHelp) {
			os.Exit(0)
		}
		os.Exit(2)
	}
	st, err := openStore(o)
	if err != nil {
		log.Fatalf("counterd: %v", err)
	}
	stats := st.Stats()
	log.Printf("counterd: %s engine, %d keys × %d bits (%s), %d shards, %d partitions, fsync=%s, recovered from %s (%d records replayed%s)",
		stats.Engine, stats.N, stats.WidthBits, stats.Algorithm, stats.Shards, stats.Partitions, stats.FsyncPolicy,
		stats.RecoveredFrom, stats.ReplayedRecords, tornNote(stats.ReplayTorn))

	self := o.advertise
	if self == "" {
		self = deriveAdvertise(o.addr)
	}
	advWire := ""
	if o.wireListen != "" {
		advWire = o.advertiseWire
		if advWire == "" {
			advWire = deriveWireAdvertise(self, o.wireListen)
		}
	}

	handler := server.Handler(st)
	var node *cluster.Node
	if o.clusterOn {
		hints := o.hintDir
		if hints == "" {
			hints = filepath.Join(o.dir, "hints")
		}
		var seeds []string
		for _, s := range strings.Split(o.join, ",") {
			if s = strings.TrimSpace(s); s != "" {
				seeds = append(seeds, s)
			}
		}
		node, err = cluster.New(st, cluster.Config{
			Self:                self,
			Join:                seeds,
			RF:                  o.rf,
			VNodes:              o.vnodes,
			HintDir:             hints,
			HintFsync:           o.hintFsync,
			WireAddr:            advWire,
			GossipInterval:      o.gossipEvery,
			AntiEntropyInterval: o.aeEvery,
			RebalanceInterval:   o.rebalEvery,
		})
		if err != nil {
			log.Fatalf("counterd: %v", err)
		}
		handler = node.Handler()
		log.Printf("counterd: cluster member %s, rf %d, joining %v", self, o.rf, seeds)
	}

	// Binary wire listener: the same ingest verbs as HTTP, framed and
	// delta-packed (internal/wire). In cluster mode BATCH frames coordinate
	// across the ring exactly like POST /inc; single-node they apply to the
	// store directly. /healthz reports the advertised address and protocol
	// version so clients can confirm what the node speaks.
	var wireSrv *wire.Server
	if o.wireListen != "" {
		var sink wire.Sink = storeSink{st}
		if node != nil {
			sink = node.WireSink()
		}
		errorCode := server.StatusFor
		if node != nil {
			errorCode = cluster.StatusFor // adds the rebalance handoff codes
		}
		wireSrv = wire.NewServer(sink, wire.ServerConfig{
			MaxBatch:  o.maxBatch,
			MaxKey:    st.Len(),
			ErrorCode: errorCode,
			Logf:      log.Printf,
			Metrics:   st.Metrics(), // counterd_wire_* series on /metrics
		})
		ln, err := net.Listen("tcp", o.wireListen)
		if err != nil {
			log.Fatalf("counterd: wire listen: %v", err)
		}
		go func() {
			if err := wireSrv.Serve(ln); err != nil {
				log.Printf("counterd: wire serve: %v", err)
			}
		}()
		st.SetWireInfo(advWire, wire.ProtocolVersion)
		log.Printf("counterd: wire protocol v%d on %s (advertised %s)", wire.ProtocolVersion, o.wireListen, advWire)
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	// Background window-tick loop: a windowed engine must rotate buckets
	// even when no writes arrive, so idle traffic still expires. Writes
	// also tick inline; this loop only covers quiet periods.
	tickDone := make(chan struct{})
	go func() {
		defer close(tickDone)
		if !st.Windowed() {
			return
		}
		// The restored engine's bucket width wins over the -bucket flag,
		// exactly like every other piece of on-disk shape — a flagless
		// restart must tick at the ring's real rate.
		bucket := time.Duration(st.Stats().BucketNanos)
		if bucket <= 0 {
			bucket = o.bucket
		}
		cadence := max(bucket/4, 10*time.Millisecond)
		t := time.NewTicker(cadence)
		defer t.Stop()
		for {
			select {
			case <-ctx.Done():
				return
			case <-t.C:
				if err := st.AdvanceWindow(); err != nil {
					log.Printf("counterd: window tick failed: %v", err)
				}
			}
		}
	}()

	// Background checkpoint loop: WAL → snapshot → truncate.
	ckptDone := make(chan struct{})
	go func() {
		defer close(ckptDone)
		if o.checkpoint <= 0 {
			return
		}
		t := time.NewTicker(o.checkpoint)
		defer t.Stop()
		for {
			select {
			case <-ctx.Done():
				return
			case <-t.C:
				start := time.Now()
				if err := st.Checkpoint(); err != nil {
					log.Printf("counterd: checkpoint failed: %v", err)
					continue
				}
				log.Printf("counterd: checkpoint in %v (wal truncated to segment %d)",
					time.Since(start).Round(time.Millisecond), st.Stats().CheckpointSeq)
			}
		}
	}()

	hs := &http.Server{Addr: o.addr, Handler: handler}
	errc := make(chan error, 1)
	go func() { errc <- hs.ListenAndServe() }()
	if node != nil {
		node.Start()
	}
	log.Printf("counterd: serving on %s", o.addr)

	select {
	case <-ctx.Done():
		log.Printf("counterd: shutting down")
	case err := <-errc:
		log.Fatalf("counterd: serve: %v", err)
	}

	// Decommission runs BEFORE the listeners come down: the node leaves the
	// ring but keeps answering reads, handoff pulls, and gossip while every
	// partition it held streams to its new owners.
	if node != nil && o.decommission {
		log.Printf("counterd: decommissioning — handing partitions off (budget %v)", o.drainTimeout)
		dctx, dcancel := context.WithTimeout(context.Background(), o.drainTimeout)
		if err := node.Decommission(dctx); err != nil {
			log.Printf("counterd: decommission incomplete: %v (state intact; a restart rejoins)", err)
		} else {
			log.Printf("counterd: decommission complete — all partitions handed off")
		}
		dcancel()
	}

	shutdownCtx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := hs.Shutdown(shutdownCtx); err != nil {
		log.Printf("counterd: http shutdown: %v", err)
	}
	if wireSrv != nil {
		wireSrv.Close()
	}
	if node != nil && !o.decommission {
		// Graceful drain: writes have stopped (listeners down, in-flight
		// requests finished), so flush what their fan-out queued — peers get
		// every acked event now instead of after this node's next start.
		dctx, dcancel := context.WithTimeout(context.Background(), o.drainTimeout)
		if err := node.Drain(dctx); err != nil {
			log.Printf("counterd: outbox drain incomplete: %v (hints stay on disk for the next start)", err)
		}
		dcancel()
	}
	if node != nil {
		node.Stop()
	}
	<-tickDone
	<-ckptDone
	if err := st.Close(o.finalCkpt); err != nil && !errors.Is(err, context.Canceled) {
		log.Printf("counterd: close: %v", err)
	}
	log.Printf("counterd: bye")
}

// deriveAdvertise guesses the peer-reachable base URL from the listen
// address: ":8347" → "http://127.0.0.1:8347" (fine for a local ring; real
// deployments pass -advertise).
func deriveAdvertise(addr string) string {
	if strings.HasPrefix(addr, ":") {
		return fmt.Sprintf("http://127.0.0.1%s", addr)
	}
	return "http://" + addr
}

// deriveWireAdvertise guesses the peer-reachable wire address: the wire
// listener's own host when it has a concrete one, otherwise the advertised
// HTTP host with the wire port (":9347" + "http://10.0.0.7:8347" →
// "10.0.0.7:9347"). Real deployments pass -advertise-wire.
func deriveWireAdvertise(selfURL, wireAddr string) string {
	host, port, err := net.SplitHostPort(wireAddr)
	if err != nil {
		return wireAddr
	}
	if host == "" || host == "0.0.0.0" || host == "::" {
		host = "127.0.0.1"
		if u, err := url.Parse(selfURL); err == nil && u.Hostname() != "" {
			host = u.Hostname()
		}
	}
	return net.JoinHostPort(host, port)
}

// storeSink adapts a single-node store to the wire ingest interface: both
// verbs apply locally (there is no ring to coordinate or replicate across).
type storeSink struct{ st *server.Store }

func (s storeSink) Batch(keys []int) (int, error) {
	if err := s.st.Apply(keys); err != nil {
		return 0, err
	}
	return len(keys), nil
}

func (s storeSink) Repl(keys []int) (int, error) { return s.Batch(keys) }

func tornNote(torn bool) string {
	if torn {
		return ", torn tail dropped"
	}
	return ""
}
