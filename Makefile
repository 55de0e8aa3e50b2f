GO ?= go

.PHONY: all build vet fmt-check doclint test race bench-test bench bench-cluster fuzz-smoke ci \
	counterd serve cluster-smoke cluster-demo windowed-demo wire-smoke grow-smoke \
	distinct-smoke \
	metrics-smoke manifest-check

all: build

build:
	$(GO) build ./...

# The durable counter daemon (see README "counterd" and docs/FORMAT.md).
counterd:
	mkdir -p bin
	$(GO) build -o bin/counterd ./cmd/counterd

serve: counterd
	bin/counterd -addr :8347 -dir ./counterd-data -n 1000000 -shards 256

# The 3-node loopback cluster demo: crash, hinted handoff, anti-entropy
# (see docs/CLUSTER.md).
cluster-demo:
	$(GO) run ./examples/distributed

# The sliding-window demo: drift, rotation, kill -9 byte-identity
# (see docs/ENGINES.md, "Engine: window").
windowed-demo:
	$(GO) run ./examples/windowed

# Wire-protocol smoke: the mixed-transport 3-node demo (half the writers on
# the binary protocol, half on HTTP, replica fan-out over the wire) plus the
# wire package's own suite and the mixed-transport crash test under race
# (see docs/FORMAT.md, "The wire protocol").
wire-smoke:
	$(GO) test -race ./internal/wire
	$(GO) test -race -run 'TestClusterMixedTransportCrashRecovery' ./internal/cluster
	$(GO) run ./examples/distributed

vet:
	$(GO) vet ./...

# Documentation lint: intra-repo markdown links resolve, and every flag or
# path reference in README.md / docs/*.md names something real (see
# tools/doclint.sh).
doclint:
	bash tools/doclint.sh

fmt-check:
	@out="$$(gofmt -l .)"; if [ -n "$$out" ]; then \
		echo "gofmt needs to be run on:" >&2; echo "$$out" >&2; exit 1; \
	fi

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

# The benchmark harness is a module of its own (bench/, see its README), so
# ./... does not reach it: its unit tests — tables vs BENCHMARK.json, the
# statistics, the pacer — run here.
bench-test:
	$(GO) test -C bench .

# The cluster integration suite under the race detector: 3-node loopback
# ring, replication, forwarding, crash/recovery convergence, and the live
# grow/shrink rebalance test — then the boot tests twenty times over, since
# ring formation is timed against events, not ticks.
BOOT_TESTS = TestClusterBootDefaultCadence|TestClusterJoinBeforeSeedListens|TestClusterFormsWithoutTicks

cluster-smoke:
	$(GO) test -race -v -run 'TestCluster|TestClient' ./internal/cluster ./internal/client
	$(GO) test -race -count=20 -run '$(BOOT_TESTS)' ./internal/cluster

# Live scale-out against real counterd processes: boot a 3-node ring, grow
# it to 5 under load, decommission one back to 4 — byte-identical owner
# snapshots and sketch-accurate estimates at every step (tools/growsmoke).
grow-smoke: counterd
	$(GO) run ./tools/growsmoke -counterd bin/counterd

# Live unique counting against real counterd processes: boot a 3-node RF=3
# distinct ring, drive Zipf load with an exact truth set, kill -9 a node and
# restart it — byte-identical whole-engine snapshots and a /distinct answer
# inside the HLL error bound at every step (tools/distinctsmoke).
distinct-smoke: counterd
	$(GO) run ./tools/distinctsmoke -counterd bin/counterd

# Observability smoke: boot a real counterd, wait for the /readyz gate,
# drive traffic, lint the full /metrics exposition with the shared parser,
# assert the key series from every instrumented layer, and check the
# embedded ops dashboard is self-contained HTML (tools/metricssmoke).
metrics-smoke: counterd
	$(GO) run ./tools/metricssmoke -counterd bin/counterd

# Validate the Kubernetes manifests under deploy/ without kubectl: probe
# paths, headless-Service gossip wiring, PVC-backed WAL dir, scrape
# annotations, and the SIGTERM drain budget (tools/manifestcheck).
manifest-check:
	$(GO) run ./tools/manifestcheck

# Mirrors the CI bench job: human-readable text plus three machine-readable
# JSON artifacts (cmd/benchjson) tracking the perf trajectory of the hot
# paths — core (single-counter + contended shardbank), serve (store, WAL,
# snapcodec, engines), cluster (ingest fan-out, partition exchange).
bench:
	mkdir -p bench-out
	$(GO) test -run='^$$' -bench=. -benchtime=100x . | tee bench-out/bench-core.txt
	$(GO) run ./cmd/benchjson < bench-out/bench-core.txt > bench-out/BENCH_core.json
	$(GO) test -run='^$$' -bench=. -benchtime=100x \
		./internal/server ./internal/wal ./internal/snapcodec ./internal/engine ./internal/wire \
		| tee bench-out/bench-serve.txt
	$(GO) run ./cmd/benchjson < bench-out/bench-serve.txt > bench-out/BENCH_serve.json
	$(GO) test -run='^$$' -bench=. -benchtime=100x ./internal/cluster | tee bench-out/bench-cluster.txt
	$(GO) run ./cmd/benchjson < bench-out/bench-cluster.txt > bench-out/BENCH_cluster.json
	$(GO) test -run='^$$' -bench='BenchmarkDurability' -benchtime=50x \
		./internal/server | tee bench-out/bench-durability.txt
	$(GO) run ./cmd/benchjson < bench-out/bench-durability.txt > bench-out/BENCH_durability.json

# Cluster-focused benchmarks only (ingest fan-out, partition snapshots,
# ring routing, WAL fsync policies), same JSON artifact.
bench-cluster:
	mkdir -p bench-out
	$(GO) test -run='^$$' -bench='Cluster|Partition|Ring|AppendBatch' -benchtime=100x \
		./internal/cluster ./internal/wal | tee bench-out/bench-cluster.txt
	$(GO) run ./cmd/benchjson < bench-out/bench-cluster.txt > bench-out/BENCH_cluster.json

fuzz-smoke:
	$(GO) test -run='^$$' -fuzz=FuzzReaderNeverPanics -fuzztime=5s ./internal/bitpack
	$(GO) test -run='^$$' -fuzz=FuzzWriteReadRoundTrip -fuzztime=5s ./internal/bitpack
	$(GO) test -run='^$$' -fuzz=FuzzDecodeState -fuzztime=5s ./internal/core
	$(GO) test -run='^$$' -fuzz=FuzzIncrementPattern -fuzztime=5s ./internal/core
	$(GO) test -run='^$$' -fuzz=FuzzEncodeDecodeRoundTrip -fuzztime=5s ./internal/snapcodec
	$(GO) test -run='^$$' -fuzz=FuzzDecodeNeverPanics -fuzztime=5s ./internal/snapcodec
	$(GO) test -run='^$$' -fuzz=FuzzDeltaSnapshot -fuzztime=5s ./internal/snapcodec
	$(GO) test -run='^$$' -fuzz=FuzzSummary -fuzztime=5s ./internal/heavyhitters
	$(GO) test -run='^$$' -fuzz=FuzzWireDecode -fuzztime=5s ./internal/wire
	$(GO) test -run='^$$' -fuzz=FuzzWALRecord -fuzztime=5s ./internal/wal
	$(GO) test -run='^$$' -fuzz=FuzzBankTopRegisters -fuzztime=5s ./internal/shardbank
	$(GO) test -run='^$$' -fuzz=FuzzDistinctSnapshot -fuzztime=5s ./internal/engine
	$(GO) test -run='^$$' -fuzz=FuzzF2Snapshot -fuzztime=5s ./internal/engine
	$(GO) test -run='^$$' -fuzz=FuzzRingSnapshot -fuzztime=5s ./internal/engine

ci: build vet fmt-check doclint manifest-check race bench-test metrics-smoke fuzz-smoke
