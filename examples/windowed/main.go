// Windowed counting demo: "how many in the last N minutes" on the durable
// store, end to end and without a wall clock — the logical bucket clock is
// driven explicitly, so the demo is deterministic and instant.
//
// It opens a window-engine store (4 buckets of "1 minute" each) over exact
// registers, pushes three phases of Zipf traffic whose hot set drifts
// between buckets, and shows the full-window vs trailing-bucket top-5
// diverging: the full window still ranks the oldest heavy hitter, the
// trailing bucket has forgotten it. Then it kill-9s the store (no final
// checkpoint) and reopens it: recovery replays the WAL — tick records
// included — to byte-identical state, proving rotation is part of the
// durable history rather than an artifact of when the process ran.
//
//	go run ./examples/windowed
package main

import (
	"bytes"
	"fmt"
	"log"
	"os"
	"sync/atomic"
	"time"

	"repro/internal/bank"
	"repro/internal/engine"
	"repro/internal/server"
	"repro/internal/stream"
	"repro/internal/wal"
	"repro/internal/xrand"
)

func main() {
	dir, err := os.MkdirTemp("", "windowed-demo-")
	if err != nil {
		log.Fatal(err)
	}
	defer os.RemoveAll(dir)

	const n = 10_000
	clk := &atomic.Uint64{} // the demo's hand-cranked bucket clock
	cfg := server.Config{
		Dir:        dir,
		N:          n,
		Alg:        bank.NewExactAlg(24),
		Seed:       42,
		Engine:     engine.KindWindow,
		Partitions: 8,
		Buckets:    4,
		BucketDur:  time.Minute,
		Clock:      clk.Load,
		Sync:       wal.SyncOff,
	}
	st, err := server.Open(cfg)
	if err != nil {
		log.Fatal(err)
	}

	// Three phases of Zipf(1.2) traffic; the hot set shifts by 2000 keys
	// each phase, and each phase lands in its own bucket.
	for phase := 0; phase < 3; phase++ {
		clk.Store(uint64(phase)) // phase 0 in epoch 0, 1 in 1, ...
		src := stream.NewZipf(n, 1.2, xrand.NewSeeded(uint64(7+phase)))
		batch := make([]int, 0, 1024)
		for i := 0; i < 50_000; i++ {
			batch = append(batch, (int(src.Next())+2000*phase)%n)
			if len(batch) == cap(batch) {
				if err := st.Apply(batch); err != nil {
					log.Fatal(err)
				}
				batch = batch[:0]
			}
		}
		if err := st.Apply(batch); err != nil {
			log.Fatal(err)
		}
		fmt.Printf("phase %d: 50k Zipf events, hot keys near %d, bucket epoch %d\n",
			phase, 2000*phase, phase)
	}

	show := func(st *server.Store, label string, w int) {
		top, err := st.TopK(5, -1, w)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("  %-16s", label)
		for _, e := range top {
			fmt.Printf("  %d(%.0f)", e.Key, e.Estimate)
		}
		fmt.Println()
	}
	fmt.Println("\ntop-5 by horizon (key(count)):")
	show(st, "full window", 0)
	show(st, "last 2 buckets", 2)
	show(st, "trailing bucket", 1)

	// Rotate the ring past phase 0: its bucket expires, and the full-window
	// ranking drops the oldest hot set.
	clk.Store(4)
	if err := st.AdvanceWindow(); err != nil {
		log.Fatal(err)
	}
	fmt.Println("\nafter rotating to epoch 4 (phase 0's bucket expired):")
	show(st, "full window", 0)

	// Crash (no checkpoint, no clean close) and recover: the WAL's batches
	// AND tick records replay to byte-identical state.
	var before bytes.Buffer
	if err := st.SnapshotTo(&before); err != nil {
		log.Fatal(err)
	}
	stats := st.Stats()
	if err := st.Close(false); err != nil {
		log.Fatal(err)
	}
	cfg.Clock = func() uint64 { return 0 } // a "wrong" clock: replay must not consult it
	st2, err := server.Open(cfg)
	if err != nil {
		log.Fatal(err)
	}
	defer st2.Close(false)
	var after bytes.Buffer
	if err := st2.SnapshotTo(&after); err != nil {
		log.Fatal(err)
	}
	if !bytes.Equal(before.Bytes(), after.Bytes()) {
		log.Fatal("recovered snapshot differs from pre-crash bytes")
	}
	fmt.Printf("\nkill -9 + restart: replayed %d records (%d ticks), snapshot byte-identical (%d bytes), epoch %d preserved\n",
		st2.Stats().ReplayedRecords, stats.Ticks, after.Len(), st2.Stats().WindowEpoch)
}
