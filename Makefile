GO ?= go

.PHONY: all build vet fmt-check doclint test race mapped-test bench-test fuzz-smoke ci \
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

# shardbank's mapped-register tests without the race detector, which keeps
# every bank on the Go heap (internal/shardbank/arena_heap.go), so `race`
# never runs the mapped path. Twenty runs: one test races the collector
# against every register-touching call.
MAPPED_TESTS = TestMapped

mapped-test:
	$(GO) test -count=20 -run '$(MAPPED_TESTS)' ./internal/shardbank

# The benchmark harness is a module of its own (bench/, see its README), so
# ./... does not reach it: its unit tests — tables vs BENCHMARK.json, the
# statistics, the pacer — run here.
bench-test:
	$(GO) test -C bench .

# The cluster integration suite under the race detector: 3-node loopback
# ring, replication, forwarding, crash/recovery convergence, and the live
# grow/shrink rebalance test — then the boot tests and the joiner's
# readiness gate twenty times over, since ring formation is timed against
# events, not ticks.
BOOT_TESTS = TestClusterBootDefaultCadence|TestClusterJoinBeforeSeedListens|TestClusterFormsWithoutTicks|TestReadinessGateOnJoin

cluster-smoke:
	$(GO) test -race -v -run 'TestCluster|TestClient' ./internal/cluster ./internal/client
	$(GO) test -race -count=20 -run '$(BOOT_TESTS)' ./internal/cluster

# The process-level smokes against real counterd processes, one scenario
# per target (tools/smoke describes each): grow a loaded ring 3->5 and
# decommission to 4; kill -9 and restart a node of a distinct ring; lint a
# live /metrics exposition and the ops dashboard.
grow-smoke: counterd
	$(GO) run ./tools/smoke -counterd bin/counterd grow

distinct-smoke: counterd
	$(GO) run ./tools/smoke -counterd bin/counterd distinct

metrics-smoke: counterd
	$(GO) run ./tools/smoke -counterd bin/counterd metrics

# Validate the Kubernetes manifests under deploy/ without kubectl: probe
# paths, headless-Service gossip wiring, PVC-backed WAL dir, scrape
# annotations, and the SIGTERM drain budget (tools/manifestcheck).
manifest-check:
	$(GO) run ./tools/manifestcheck

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
	$(GO) test -run='^$$' -fuzz=FuzzBankCut -fuzztime=5s ./internal/shardbank
	$(GO) test -run='^$$' -fuzz=FuzzMergeMaxRaised -fuzztime=5s ./internal/shardbank
	$(GO) test -run='^$$' -fuzz=FuzzDistinctSnapshot -fuzztime=5s ./internal/engine
	$(GO) test -run='^$$' -fuzz=FuzzF2Snapshot -fuzztime=5s ./internal/engine
	$(GO) test -run='^$$' -fuzz=FuzzRingSnapshot -fuzztime=5s ./internal/engine

ci: build vet fmt-check doclint manifest-check race mapped-test bench-test metrics-smoke fuzz-smoke
