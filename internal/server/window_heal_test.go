package server

import (
	"bytes"
	"testing"
)

// Epoch-tagged drains heal into the bucket where the traffic originated:
// a hint delayed across a rotation still lands in its origin bucket (so a
// narrow trailing window excludes it, exactly like it excludes the local
// writes of that epoch), and a hint whose bucket rotated out is dropped,
// never smeared into the current bucket. Replay reproduces both outcomes.
func TestApplyAtHealsOriginBucket(t *testing.T) {
	cfg, clk := windowConfig(t, 400) // 4 buckets, 4 partitions
	st, err := Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	// Local traffic at epoch 0, then two rotations.
	if err := st.Apply([]int{7, 7, 7}); err != nil {
		t.Fatal(err)
	}
	clk.Store(2)
	if err := st.AdvanceWindow(); err != nil {
		t.Fatal(err)
	}
	// A delayed hint tagged with epoch 0: bucket 0 is still live (ring of
	// 4), so the keys must heal there — not into the current bucket 2.
	applied, err := st.ApplyAt([]int{7, 7}, 0)
	if err != nil {
		t.Fatal(err)
	}
	if applied != 2 {
		t.Fatalf("applied %d of 2 hint keys", applied)
	}
	// The trailing 1-bucket window saw no epoch-0 traffic; the full window
	// saw all five events.
	narrow, err := st.Estimate(7, 1)
	if err != nil {
		t.Fatal(err)
	}
	if narrow != 0 {
		t.Fatalf("smeared: trailing bucket estimates %v for key 7", narrow)
	}
	wide, err := st.Estimate(7, 4)
	if err != nil {
		t.Fatal(err)
	}
	if wide < 4 || wide > 6 { // exact alg would be 5; morris jitter is ±1 here
		t.Fatalf("full window estimates %v for key 7, want ≈5", wide)
	}

	// Rotate epoch 0 out of the ring: a hint tagged with it now drops.
	clk.Store(5)
	if err := st.AdvanceWindow(); err != nil {
		t.Fatal(err)
	}
	applied, err = st.ApplyAt([]int{7, 7, 7, 7}, 0)
	if err != nil {
		t.Fatal(err)
	}
	if applied != 0 {
		t.Fatalf("expired hint applied %d keys", applied)
	}
	if got := st.stales.Value(); got != 4 {
		t.Fatalf("stale hint counter = %d, want 4", got)
	}

	// A hint from an origin clock AHEAD of ours rotates the ring first.
	applied, err = st.ApplyAt([]int{3}, 7)
	if err != nil {
		t.Fatal(err)
	}
	if applied != 1 {
		t.Fatalf("future-epoch hint applied %d keys", applied)
	}
	if got := st.windowed.Epoch(); got != 7 {
		t.Fatalf("epoch after future hint = %d, want 7", got)
	}

	// Replay exactness: RecBatchAt records restore the same registers.
	want := snapshotBytes(t, st)
	if err := st.Close(false); err != nil {
		t.Fatal(err)
	}
	cfg.Clock = func() uint64 { return 0 } // replay ignores the live clock
	st2, err := Open(cfg)
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	defer st2.Close(false)
	if got := snapshotBytes(t, st2); !bytes.Equal(got, want) {
		t.Fatal("replayed RecBatchAt diverged from live apply")
	}
	if got := st2.stales.Value(); got != 4 {
		t.Fatalf("replayed stale hint counter = %d, want 4", got)
	}
}

// On a non-windowed engine the epoch is advisory: ApplyAt counts like Apply.
func TestApplyAtOnBankEngine(t *testing.T) {
	cfg := testConfig(t, 100)
	st, err := Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close(false)
	applied, err := st.ApplyAt([]int{1, 2, 3}, 99)
	if err != nil {
		t.Fatal(err)
	}
	if applied != 3 {
		t.Fatalf("applied %d of 3", applied)
	}
	if est, _ := st.Estimate(1, 0); est == 0 {
		t.Fatal("key 1 not counted")
	}
}
