package wal

import (
	"bytes"
	"fmt"
	"os"
	"slices"
	"sync"
	"testing"
	"time"

	"repro/internal/bank"
	"repro/internal/shardbank"
	"repro/internal/stream"
	"repro/internal/xrand"
)

func zipfBatches(n, batches, batchLen int, seed uint64) [][]int {
	src := stream.NewZipf(uint64(n), 1.05, xrand.NewSeeded(seed))
	out := make([][]int, batches)
	for i := range out {
		b := make([]int, batchLen)
		for j := range b {
			b[j] = int(src.Next())
		}
		out[i] = b
	}
	return out
}

func collect(t *testing.T, dir string, fromSeq uint64) ([]Record, ReplayStats) {
	t.Helper()
	var recs []Record
	stats, err := Replay(dir, fromSeq, func(r Record) error {
		// Deep-copy: Blob aliases the segment read buffer.
		cp := Record{Type: r.Type, Keys: append([]int(nil), r.Keys...), Blob: bytes.Clone(r.Blob)}
		recs = append(recs, cp)
		return nil
	})
	if err != nil {
		t.Fatalf("replay: %v", err)
	}
	return recs, stats
}

func TestAppendReplayRoundTrip(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(dir, Options{})
	if err != nil {
		t.Fatalf("open: %v", err)
	}
	batches := zipfBatches(1000, 50, 64, 1)
	for _, b := range batches {
		if err := l.AppendBatch(b); err != nil {
			t.Fatalf("append: %v", err)
		}
	}
	blob := []byte("snapcodec-blob-stand-in")
	if err := l.AppendMerge(blob); err != nil {
		t.Fatalf("append merge: %v", err)
	}
	if err := l.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}

	recs, stats := collect(t, dir, 0)
	if stats.Torn {
		t.Fatalf("clean log reported torn tail: %+v", stats)
	}
	if len(recs) != len(batches)+1 {
		t.Fatalf("replayed %d records, want %d", len(recs), len(batches)+1)
	}
	for i, b := range batches {
		if recs[i].Type != RecBatch {
			t.Fatalf("record %d type %d", i, recs[i].Type)
		}
		if fmt.Sprint(recs[i].Keys) != fmt.Sprint(b) {
			t.Fatalf("record %d keys mismatch", i)
		}
	}
	last := recs[len(recs)-1]
	if last.Type != RecMerge || !bytes.Equal(last.Blob, blob) {
		t.Fatalf("merge record mismatch: %+v", last)
	}
}

func TestRotationAndTruncate(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(dir, Options{SegmentBytes: 512, Policy: SyncOff})
	if err != nil {
		t.Fatalf("open: %v", err)
	}
	batches := zipfBatches(1000, 40, 32, 2)
	for _, b := range batches {
		if err := l.AppendBatch(b); err != nil {
			t.Fatalf("append: %v", err)
		}
	}
	segs, err := l.Segments()
	if err != nil {
		t.Fatalf("segments: %v", err)
	}
	if len(segs) < 3 {
		t.Fatalf("expected auto-rotation to create ≥3 segments, got %v", segs)
	}
	// All records survive replay across segment boundaries.
	recs, _ := collect(t, dir, 0)
	if len(recs) != len(batches) {
		t.Fatalf("replayed %d records, want %d", len(recs), len(batches))
	}

	// Explicit rotate = checkpoint boundary. Everything before newSeg is
	// garbage once the checkpoint exists.
	newSeg, err := l.Rotate()
	if err != nil {
		t.Fatalf("rotate: %v", err)
	}
	extra := zipfBatches(1000, 5, 32, 3)
	for _, b := range extra {
		if err := l.AppendBatch(b); err != nil {
			t.Fatalf("append post-rotate: %v", err)
		}
	}
	if err := l.TruncateBefore(newSeg); err != nil {
		t.Fatalf("truncate: %v", err)
	}
	segs, _ = l.Segments()
	for _, s := range segs {
		if s < newSeg {
			t.Fatalf("segment %d survived TruncateBefore(%d)", s, newSeg)
		}
	}
	recs, _ = collect(t, dir, newSeg)
	if len(recs) != len(extra) {
		t.Fatalf("post-checkpoint replay saw %d records, want %d", len(recs), len(extra))
	}
	if err := l.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}
}

// The crash-recovery contract: truncate the final segment at EVERY possible
// byte boundary (simulating a kill -9 mid-write) and verify that replay
// yields exactly some prefix of the appended records — never an error, never
// a corrupted record, never a record that was not appended.
func TestTornTailEveryTruncation(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(dir, Options{Policy: SyncOff})
	if err != nil {
		t.Fatalf("open: %v", err)
	}
	batches := zipfBatches(100, 8, 4, 4)
	for _, b := range batches {
		if err := l.AppendBatch(b); err != nil {
			t.Fatalf("append: %v", err)
		}
	}
	if err := l.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}
	segs, _ := listSegments(dir)
	if len(segs) != 1 {
		t.Fatalf("want 1 segment, got %v", segs)
	}
	path := segPath(dir, segs[0])
	full, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}

	for cut := 0; cut <= len(full); cut++ {
		if err := os.WriteFile(path, full[:cut], 0o644); err != nil {
			t.Fatal(err)
		}
		var got int
		stats, err := Replay(dir, 0, func(r Record) error {
			if fmt.Sprint(r.Keys) != fmt.Sprint(batches[got]) {
				t.Fatalf("cut=%d: record %d has wrong keys", cut, got)
			}
			got++
			return nil
		})
		if err != nil {
			t.Fatalf("cut=%d: replay error: %v", cut, err)
		}
		if got > len(batches) {
			t.Fatalf("cut=%d: replayed %d records from %d appended", cut, got, len(batches))
		}
		if cut == len(full) && (got != len(batches) || stats.Torn) {
			t.Fatalf("uncut file replayed %d/%d records, torn=%v", got, len(batches), stats.Torn)
		}
		if cut < len(full) && got == len(batches) && !stats.Torn && cut < len(full) {
			// Truncation inside the file but all records intact can only
			// happen when the cut removed zero bytes of record data — i.e.
			// never, since cut < len(full) removes tail bytes of the last
			// record or its frame.
			t.Fatalf("cut=%d: lost bytes but replay saw every record and no torn flag", cut)
		}
	}
}

// Corruption in a non-final segment must be an error, not a silent stop.
func TestMidLogCorruptionIsFatal(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(dir, Options{Policy: SyncOff})
	if err != nil {
		t.Fatalf("open: %v", err)
	}
	for _, b := range zipfBatches(100, 4, 8, 5) {
		if err := l.AppendBatch(b); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := l.Rotate(); err != nil {
		t.Fatal(err)
	}
	for _, b := range zipfBatches(100, 4, 8, 6) {
		if err := l.AppendBatch(b); err != nil {
			t.Fatal(err)
		}
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	segs, _ := listSegments(dir)
	if len(segs) < 2 {
		t.Fatalf("want ≥2 segments, got %v", segs)
	}
	// Flip a payload byte in the FIRST segment.
	path := segPath(dir, segs[0])
	data, _ := os.ReadFile(path)
	data[20] ^= 0xFF
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Replay(dir, 0, func(Record) error { return nil }); err == nil {
		t.Fatal("corruption in non-final segment replayed cleanly")
	}
}

// Group commit under concurrency: many goroutines appending in parallel must
// all become durable, and replay must see every batch exactly once.
func TestConcurrentGroupCommit(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(dir, Options{SegmentBytes: 4096})
	if err != nil {
		t.Fatalf("open: %v", err)
	}
	const writers = 8
	const perWriter = 50
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWriter; i++ {
				// Batch content identifies (writer, i) for the accounting
				// below.
				if err := l.AppendBatch([]int{w, i}); err != nil {
					t.Errorf("writer %d: %v", w, err)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	if err := l.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}
	seen := make(map[[2]int]bool)
	_, err = Replay(dir, 0, func(r Record) error {
		if len(r.Keys) != 2 {
			return fmt.Errorf("bad record %v", r.Keys)
		}
		k := [2]int{r.Keys[0], r.Keys[1]}
		if seen[k] {
			return fmt.Errorf("duplicate record %v", k)
		}
		seen[k] = true
		return nil
	})
	if err != nil {
		t.Fatalf("replay: %v", err)
	}
	if len(seen) != writers*perWriter {
		t.Fatalf("replayed %d unique records, want %d", len(seen), writers*perWriter)
	}
}

// The end-to-end recovery property the daemon relies on: a fresh bank built
// from the same seed, replaying the WAL (including a torn tail), reproduces
// the reference bank that applied the surviving prefix — register for
// register.
func TestCrashRecoveryMatchesReferenceBank(t *testing.T) {
	const n = 500
	alg := bank.NewMorrisAlg(0.02, 12)
	dir := t.TempDir()
	l, err := Open(dir, Options{Policy: SyncOff})
	if err != nil {
		t.Fatalf("open: %v", err)
	}
	batches := zipfBatches(n, 30, 64, 7)
	for _, b := range batches {
		if err := l.AppendBatch(b); err != nil {
			t.Fatal(err)
		}
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	segs, _ := listSegments(dir)
	path := segPath(dir, segs[len(segs)-1])
	full, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	// Kill mid-write: chop the tail at a byte that is inside some record.
	for _, cut := range []int{len(full) - 3, len(full) - 40, len(full) / 2} {
		if err := os.WriteFile(path, full[:cut], 0o644); err != nil {
			t.Fatal(err)
		}
		// Recovered bank: fresh from seed, replay whatever survived.
		rec := shardbank.New(n, alg, 8, 42)
		applied := 0
		if _, err := Replay(dir, 0, func(r Record) error {
			rec.IncrementBatch(r.Keys)
			applied++
			return nil
		}); err != nil {
			t.Fatalf("cut=%d: replay: %v", cut, err)
		}
		// Reference bank: the same seed applying the surviving prefix
		// directly.
		ref := shardbank.New(n, alg, 8, 42)
		for i := 0; i < applied; i++ {
			ref.IncrementBatch(batches[i])
		}
		for i := 0; i < n; i++ {
			if got, want := rec.Register(i), ref.Register(i); got != want {
				t.Fatalf("cut=%d: register %d = %d after recovery, want %d", cut, i, got, want)
			}
		}
	}
}

func TestReopenStartsFreshSegment(t *testing.T) {
	dir := t.TempDir()
	l1, err := Open(dir, Options{Policy: SyncOff})
	if err != nil {
		t.Fatal(err)
	}
	if err := l1.AppendBatch([]int{1, 2}); err != nil {
		t.Fatal(err)
	}
	first := l1.ActiveSegment()
	if err := l1.Close(); err != nil {
		t.Fatal(err)
	}
	l2, err := Open(dir, Options{Policy: SyncOff})
	if err != nil {
		t.Fatal(err)
	}
	if l2.ActiveSegment() <= first {
		t.Fatalf("reopen reused segment %d", l2.ActiveSegment())
	}
	if err := l2.AppendBatch([]int{3}); err != nil {
		t.Fatal(err)
	}
	if err := l2.Close(); err != nil {
		t.Fatal(err)
	}
	recs, _ := collect(t, dir, 0)
	if len(recs) != 2 {
		t.Fatalf("replayed %d records across reopen, want 2", len(recs))
	}
}

func TestClosedLogRejectsOps(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	if err := l.AppendBatch([]int{1}); err == nil {
		t.Fatal("append on closed log succeeded")
	}
	if _, err := l.Rotate(); err == nil {
		t.Fatal("rotate on closed log succeeded")
	}
}

// batchShape is one batch the store stages, shaped like a workload's.
type batchShape struct {
	name string
	keys []int
}

// batchShapes returns the batches the WAL benchmarks append: an HTTP-style
// Zipf batch in draw order (the uvarint form), and three ascending ones
// shaped like what the wire decoder hands the store (the packed form) — a
// 1 024-key Zipf(1.05) batch over 1M keys (wire_bank), a coordinator's
// 341-key share of a uniform batch over 4M keys (ring3_wire), and an
// 8 192-key uniform replica drain chunk over 4M keys.
func batchShapes() []batchShape {
	uniform := func(n, count int, seed uint64) []int {
		src := stream.NewUniform(uint64(n), xrand.NewSeeded(seed))
		keys := make([]int, count)
		for i := range keys {
			keys[i] = int(src.Next())
		}
		return slices.Sorted(slices.Values(keys))
	}
	return []batchShape{
		{"zipf1024", zipfBatches(100_000, 1, 1024, 1)[0]},
		{"zipf1024-sorted", slices.Sorted(slices.Values(zipfBatches(1_000_000, 1, 1024, 1)[0]))},
		{"uniform341-sorted", uniform(4_000_000, 341, 2)},
		{"drain8192-sorted", uniform(4_000_000, 8192, 3)},
	}
}

// BenchmarkAppendBatch is the -fsync policy comparison row: the same batched
// append under always (fsync per group commit), interval (background fsync),
// and off (page cache only), for each batch shape.
func BenchmarkAppendBatch(b *testing.B) {
	shapes := batchShapes()
	for _, policy := range []SyncPolicy{SyncAlways, SyncInterval, SyncOff} {
		for _, sh := range shapes {
			b.Run("fsync="+policy.String()+"/"+sh.name, func(b *testing.B) {
				dir := b.TempDir()
				l, err := Open(dir, Options{Policy: policy})
				if err != nil {
					b.Fatal(err)
				}
				defer l.Close()
				frame, _ := encodeRecord(nil, Record{Type: RecBatch, Keys: sh.keys})
				b.SetBytes(int64(len(frame)))
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					if err := l.AppendBatch(sh.keys); err != nil {
						b.Fatal(err)
					}
				}
				b.ReportMetric(float64(len(sh.keys))*float64(b.N)/b.Elapsed().Seconds(), "keys/s")
				b.ReportMetric(float64(len(frame))/float64(len(sh.keys)), "B/event")
			})
		}
	}
}

// BenchmarkReplay reads back a log of about 1M events of each batch shape:
// the recovery and outbox-drain read path.
func BenchmarkReplay(b *testing.B) {
	for _, sh := range batchShapes() {
		b.Run(sh.name, func(b *testing.B) {
			dir := b.TempDir()
			l, err := Open(dir, Options{Policy: SyncOff})
			if err != nil {
				b.Fatal(err)
			}
			records := (1 << 20) / len(sh.keys)
			for i := 0; i < records; i++ {
				if err := l.AppendBatch(sh.keys); err != nil {
					b.Fatal(err)
				}
			}
			if err := l.Close(); err != nil {
				b.Fatal(err)
			}
			var logBytes int64
			segs, _ := listSegments(dir)
			for _, s := range segs {
				fi, err := os.Stat(segPath(dir, s))
				if err != nil {
					b.Fatal(err)
				}
				logBytes += fi.Size()
			}
			events := records * len(sh.keys)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				got := 0
				if _, err := Replay(dir, 0, func(r Record) error { got += len(r.Keys); return nil }); err != nil {
					b.Fatal(err)
				}
				if got != events {
					b.Fatalf("replayed %d events, want %d", got, events)
				}
			}
			b.ReportMetric(float64(events)*float64(b.N)/b.Elapsed().Seconds(), "events/s")
			b.ReportMetric(float64(logBytes)/float64(events), "B/event")
		})
	}
}

func BenchmarkGroupCommitParallel(b *testing.B) {
	dir := b.TempDir()
	l, err := Open(dir, Options{})
	if err != nil {
		b.Fatal(err)
	}
	defer l.Close()
	keys := zipfBatches(100_000, 1, 256, 1)[0]
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			if err := l.AppendBatch(keys); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// RepairTorn must truncate a torn tail so the segment replays cleanly even
// once it is no longer the final segment.
func TestRepairTorn(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(dir, Options{Policy: SyncOff})
	if err != nil {
		t.Fatal(err)
	}
	batches := zipfBatches(100, 6, 8, 9)
	for _, b := range batches {
		if err := l.AppendBatch(b); err != nil {
			t.Fatal(err)
		}
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	segs, _ := listSegments(dir)
	path := segPath(dir, segs[0])
	full, _ := os.ReadFile(path)

	for _, cut := range []int{len(full) - 5, 20, 3} { // mid-record, mid-first-record, mid-header
		if err := os.WriteFile(path, full[:cut], 0o644); err != nil {
			t.Fatal(err)
		}
		stats, err := Replay(dir, 0, func(Record) error { return nil })
		if err != nil {
			t.Fatalf("cut=%d: replay: %v", cut, err)
		}
		if !stats.Torn {
			t.Fatalf("cut=%d: torn tail not reported", cut)
		}
		if err := RepairTorn(dir, stats); err != nil {
			t.Fatalf("cut=%d: repair: %v", cut, err)
		}
		// After repair, simulate the segment becoming non-final: open a new
		// log (fresh segment above it), then replay everything.
		l2, err := Open(dir, Options{Policy: SyncOff})
		if err != nil {
			t.Fatalf("cut=%d: reopen: %v", cut, err)
		}
		if err := l2.AppendBatch([]int{1}); err != nil {
			t.Fatal(err)
		}
		if err := l2.Close(); err != nil {
			t.Fatal(err)
		}
		n := 0
		stats2, err := Replay(dir, 0, func(Record) error { n++; return nil })
		if err != nil {
			t.Fatalf("cut=%d: replay after repair failed: %v", cut, err)
		}
		if stats2.Torn {
			t.Fatalf("cut=%d: still torn after repair", cut)
		}
		if n != stats.Records+1 {
			t.Fatalf("cut=%d: replayed %d records, want %d", cut, n, stats.Records+1)
		}
		// Reset for the next truncation point: drop the extra segments.
		extra, _ := listSegments(dir)
		for _, s := range extra[1:] {
			os.Remove(segPath(dir, s))
		}
	}
}

func TestParseSyncPolicy(t *testing.T) {
	for s, want := range map[string]SyncPolicy{
		"always": SyncAlways, "interval": SyncInterval, "off": SyncOff,
	} {
		got, err := ParseSyncPolicy(s)
		if err != nil || got != want {
			t.Fatalf("ParseSyncPolicy(%q) = %v, %v", s, got, err)
		}
		if got.String() != s {
			t.Fatalf("%v.String() = %q", got, got.String())
		}
	}
	if _, err := ParseSyncPolicy("sometimes"); err == nil {
		t.Fatal("bad policy accepted")
	}
}

// Under SyncInterval, a committed record must reach the segment file without
// any explicit Sync/Close — the background flusher writes it out within a few
// intervals. (Whether the bytes are fsynced is invisible to a test; what is
// observable, and what matters for crash recovery of the *process*, is that
// the buffer drains to the file.)
func TestSyncIntervalFlushesInBackground(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(dir, Options{Policy: SyncInterval, Interval: 5 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	if err := l.AppendBatch([]int{1, 2, 3}); err != nil {
		t.Fatal(err)
	}
	path := segPath(dir, l.ActiveSegment())
	deadline := time.Now().Add(2 * time.Second)
	for {
		fi, err := os.Stat(path)
		if err == nil && fi.Size() > 16 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("background flusher never drained the staged record")
		}
		time.Sleep(2 * time.Millisecond)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	var got []Record
	if _, err := Replay(dir, 0, func(r Record) error { got = append(got, r); return nil }); err != nil {
		t.Fatal(err)
	}
	if len(got) != 1 || len(got[0].Keys) != 3 {
		t.Fatalf("replayed %+v", got)
	}
}

func TestMergeMaxRecordRoundTrip(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(dir, Options{Policy: SyncOff})
	if err != nil {
		t.Fatal(err)
	}
	blob := []byte("snapshot bytes, opaque to the wal")
	if err := l.Append(Record{Type: RecMergeMax, Blob: blob}); err != nil {
		t.Fatal(err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	var got []Record
	if _, err := Replay(dir, 0, func(r Record) error { got = append(got, r); return nil }); err != nil {
		t.Fatal(err)
	}
	if len(got) != 1 || got[0].Type != RecMergeMax || string(got[0].Blob) != string(blob) {
		t.Fatalf("replayed %+v", got)
	}
}

// RecOwn carries three partition lists plus the ring version; RecEvict
// carries one partition in Epoch. Both must survive a replay byte-exactly,
// including the empty-list cases.
func TestOwnershipRecordRoundTrip(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(dir, Options{Policy: SyncOff})
	if err != nil {
		t.Fatal(err)
	}
	want := []Record{
		{Type: RecOwn, Epoch: 0xdeadbeefcafef00d, Keys: []int{1, 5}, Parts: []int{2}, Owned: []int{0, 1, 2, 5, 7}},
		{Type: RecOwn, Epoch: 7}, // all lists empty: a node owning nothing
		{Type: RecEvict, Epoch: 3},
	}
	for i, r := range want {
		if err := l.Append(r); err != nil {
			t.Fatalf("append %d: %v", i, err)
		}
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	var got []Record
	if _, err := Replay(dir, 0, func(r Record) error {
		got = append(got, Record{
			Type:  r.Type,
			Epoch: r.Epoch,
			Keys:  append([]int(nil), r.Keys...),
			Parts: append([]int(nil), r.Parts...),
			Owned: append([]int(nil), r.Owned...),
		})
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if len(got) != len(want) {
		t.Fatalf("replayed %d records, want %d", len(got), len(want))
	}
	for i := range want {
		w, g := want[i], got[i]
		if g.Type != w.Type || g.Epoch != w.Epoch ||
			fmt.Sprint(g.Keys) != fmt.Sprint(w.Keys) ||
			fmt.Sprint(g.Parts) != fmt.Sprint(w.Parts) ||
			fmt.Sprint(g.Owned) != fmt.Sprint(w.Owned) {
			t.Fatalf("record %d: got %+v, want %+v", i, g, w)
		}
	}
}
