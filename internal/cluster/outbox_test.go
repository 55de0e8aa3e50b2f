package cluster

import (
	"errors"
	"fmt"
	"testing"

	"repro/internal/wal"
)

func TestOutboxAppendDrainTruncate(t *testing.T) {
	dir := t.TempDir()
	o, reset, err := openOutbox(dir, wal.Options{Policy: wal.SyncOff})
	if err != nil {
		t.Fatal(err)
	}
	if reset {
		t.Fatal("fresh outbox reported a reset")
	}
	for i := 0; i < 10; i++ {
		if err := o.append([]int{i, i + 100}, 0, false); err != nil {
			t.Fatal(err)
		}
	}
	if o.pending() != 10 {
		t.Fatalf("pending = %d", o.pending())
	}
	var got []int
	if err := o.drain(3, func(chunk []int, _ uint64, _ bool) error {
		if len(chunk) > 3 {
			t.Fatalf("chunk of %d keys exceeds max 3", len(chunk))
		}
		got = append(got, chunk...)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if o.pending() != 0 {
		t.Fatalf("pending after drain = %d", o.pending())
	}
	if len(got) != 20 {
		t.Fatalf("drained %d keys, want 20", len(got))
	}
	// Order preserved across records.
	for i := 0; i < 10; i++ {
		if got[2*i] != i || got[2*i+1] != i+100 {
			t.Fatalf("keys out of order at record %d: %v", i, got[2*i:2*i+2])
		}
	}
	// Nothing left: a second drain sends nothing.
	if err := o.drain(3, func([]int, uint64, bool) error { t.Fatal("drained empty outbox"); return nil }); err != nil {
		t.Fatal(err)
	}
	if err := o.close(); err != nil {
		t.Fatal(err)
	}
}

// A failed send must keep every record queued for the next drain.
func TestOutboxRetainsOnSendFailure(t *testing.T) {
	dir := t.TempDir()
	o, _, err := openOutbox(dir, wal.Options{Policy: wal.SyncOff})
	if err != nil {
		t.Fatal(err)
	}
	defer o.close()
	for i := 0; i < 5; i++ {
		if err := o.append([]int{i}, 0, false); err != nil {
			t.Fatal(err)
		}
	}
	boom := errors.New("peer down")
	if err := o.drain(100, func([]int, uint64, bool) error { return boom }); !errors.Is(err, boom) {
		t.Fatalf("drain error = %v", err)
	}
	if o.pending() != 5 {
		t.Fatalf("pending after failed drain = %d", o.pending())
	}
	// Append more while the peer is down; the retry ships everything.
	if err := o.append([]int{99}, 0, false); err != nil {
		t.Fatal(err)
	}
	var got []int
	if err := o.drain(100, func(chunk []int, _ uint64, _ bool) error { got = append(got, chunk...); return nil }); err != nil {
		t.Fatal(err)
	}
	if fmt.Sprint(got) != "[0 1 2 3 4 99]" {
		t.Fatalf("retry drained %v", got)
	}
	if o.pending() != 0 {
		t.Fatalf("pending = %d", o.pending())
	}
}

// A drain that fails part-way resumes where the peer stopped acknowledging:
// the chunks it already delivered are not sent again. A peer that crashed
// mid-drain has those chunks in its own log, so a re-send would count them
// twice there.
func TestOutboxFailedDrainResumes(t *testing.T) {
	o, _, err := openOutbox(t.TempDir(), wal.Options{Policy: wal.SyncOff})
	if err != nil {
		t.Fatal(err)
	}
	defer o.close()
	for i := 0; i < 10; i++ {
		if err := o.append([]int{2 * i, 2*i + 1}, 0, false); err != nil {
			t.Fatal(err)
		}
	}
	var got []int
	calls := 0
	boom := errors.New("peer crashed")
	if err := o.drain(3, func(chunk []int, _ uint64, _ bool) error {
		if calls++; calls == 3 {
			return boom
		}
		got = append(got, chunk...)
		return nil
	}); !errors.Is(err, boom) {
		t.Fatalf("drain error = %v", err)
	}
	if len(got) != 6 {
		t.Fatalf("first drain delivered %v, want 6 keys", got)
	}
	if err := o.append([]int{20}, 0, false); err != nil {
		t.Fatal(err)
	}
	if err := o.drain(3, func(chunk []int, _ uint64, _ bool) error { got = append(got, chunk...); return nil }); err != nil {
		t.Fatal(err)
	}
	if want := "[0 1 2 3 4 5 6 7 8 9 10 11 12 13 14 15 16 17 18 19 20]"; fmt.Sprint(got) != want {
		t.Fatalf("delivered across both drains %v, want each key once: %s", got, want)
	}
	if o.pending() != 0 {
		t.Fatalf("pending = %d", o.pending())
	}
}

// Hints survive a process restart: a reopened outbox counts and ships the
// records the previous process left behind.
func TestOutboxSurvivesRestart(t *testing.T) {
	dir := t.TempDir()
	o, _, err := openOutbox(dir, wal.Options{Policy: wal.SyncOff})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 7; i++ {
		if err := o.append([]int{i}, 0, false); err != nil {
			t.Fatal(err)
		}
	}
	// "Crash": close without draining (Close flushes buffered records, as
	// the OS page cache would preserve them on a process kill).
	if err := o.close(); err != nil {
		t.Fatal(err)
	}
	o2, reset, err := openOutbox(dir, wal.Options{Policy: wal.SyncOff})
	if err != nil {
		t.Fatal(err)
	}
	defer o2.close()
	if reset {
		t.Fatal("clean restart reported corruption")
	}
	if o2.pending() != 7 {
		t.Fatalf("restart counted %d pending, want 7", o2.pending())
	}
	var got []int
	if err := o2.drain(100, func(chunk []int, _ uint64, _ bool) error { got = append(got, chunk...); return nil }); err != nil {
		t.Fatal(err)
	}
	if fmt.Sprint(got) != "[0 1 2 3 4 5 6]" {
		t.Fatalf("restart drained %v", got)
	}
}
