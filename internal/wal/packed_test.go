package wal

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"sort"
	"testing"

	"repro/internal/xrand"
)

// framePayload returns the payload of one encoded frame; frame[0] is its
// type.
func framePayload(frame []byte) []byte { return frame[5 : len(frame)-4] }

// roundTrip encodes rec, checks the on-disk form the key order calls for,
// and returns what decoding gives back.
func roundTrip(t *testing.T, rec Record) Record {
	t.Helper()
	frame, err := encodeRecord(nil, rec)
	if err != nil {
		t.Fatalf("encode %v: %v", rec.Type, err)
	}
	want := rec.Type
	if slices.IsSorted(rec.Keys) {
		want = map[byte]byte{RecBatch: recPacked, RecBatchAt: recPackedAt}[rec.Type]
	}
	if got := frame[0]; got != want {
		t.Fatalf("%d keys (sorted %v) written as type %d, want %d", len(rec.Keys), slices.IsSorted(rec.Keys), got, want)
	}
	dec, err := decodePayload(frame[0], framePayload(frame))
	if err != nil {
		t.Fatalf("decode type %d: %v", frame[0], err)
	}
	return dec
}

func sameRecord(a, b Record) bool {
	return a.Type == b.Type && a.Epoch == b.Epoch && slices.Equal(a.Keys, b.Keys) &&
		bytes.Equal(a.Blob, b.Blob) && slices.Equal(a.Parts, b.Parts) && slices.Equal(a.Owned, b.Owned)
}

// A batch whose keys are non-decreasing is written packed, any other one
// in the uvarint form, and both decode to the record that was staged.
func TestBatchFormFollowsKeyOrder(t *testing.T) {
	long := make([]int, 1000)
	for i := range long {
		long[i] = i * i % 997
	}
	for _, keys := range [][]int{
		{},
		{0},
		{1<<26 - 1},
		{0, 0, 0, 0},
		{3, 3, 17, 200, 70000, 70001, 1<<31 - 1},
		slices.Sorted(slices.Values(long)),
		{2, 1},
		{5, 3, 300, 3, 70000, 0},
		long,
	} {
		for _, rec := range []Record{{Type: RecBatch, Keys: keys}, {Type: RecBatchAt, Epoch: 1 << 40, Keys: keys}} {
			if got := roundTrip(t, rec); !sameRecord(got, rec) {
				t.Fatalf("type %d, %d keys: decoded %+v", rec.Type, len(keys), got)
			}
		}
	}
	if _, err := encodeRecord(nil, Record{Type: RecBatch, Keys: []int{-1, 4}}); err == nil {
		t.Fatal("sorted batch with a negative key encoded")
	}
	if _, err := encodeRecord(nil, Record{Type: RecBatch, Keys: []int{4, -1}}); err == nil {
		t.Fatal("unsorted batch with a negative key encoded")
	}
}

// An unsorted batch keeps the uvarint record byte for byte: these frames
// were written by the encoder as it stood before packed records existed.
func TestUnsortedBatchFramesUnchanged(t *testing.T) {
	for _, tc := range []struct {
		rec   Record
		frame []byte
	}{
		{Record{Type: RecBatch, Keys: []int{5, 3, 300, 3, 70000, 0}},
			[]byte{0x1, 0xa, 0x0, 0x0, 0x0, 0x6, 0x5, 0x3, 0xac, 0x2, 0x3, 0xf0, 0xa2, 0x4, 0x0, 0x75, 0x8a, 0x72, 0x6a}},
		{Record{Type: RecBatchAt, Epoch: 42, Keys: []int{9, 8, 7}},
			[]byte{0x7, 0x5, 0x0, 0x0, 0x0, 0x2a, 0x3, 0x9, 0x8, 0x7, 0xc6, 0x88, 0x56, 0xaa}},
	} {
		got, err := encodeRecord(nil, tc.rec)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, tc.frame) {
			t.Fatalf("type %d frame\n got %#v\nwant %#v", tc.rec.Type, got, tc.frame)
		}
	}
}

// goldenLong is the 300-key sorted batch in testdata/parent-log.
func goldenLong() []int {
	keys := make([]int, 300)
	for i := range keys {
		keys[i] = (i * i * 37) % 5000
	}
	sort.Ints(keys)
	return keys
}

// testdata/parent-log holds one segment written by the encoder as it stood
// before packed records existed. It replays to the records it was written
// from, and every record but the sorted batches re-encodes to the same
// frame bytes.
func TestParentLogReplays(t *testing.T) {
	dir := filepath.Join("testdata", "parent-log")
	want := []Record{
		{Type: RecBatch, Keys: []int{3, 3, 17, 200, 70000, 70001, 1<<26 - 1}},
		{Type: RecBatch, Keys: []int{5, 3, 300, 3, 70000, 0}},
		{Type: RecTick, Epoch: 42},
		{Type: RecBatchAt, Epoch: 41, Keys: []int{0, 1, 2, 2, 2, 129, 4096}},
		{Type: RecBatchAt, Epoch: 42, Keys: []int{9, 8, 7}},
		{Type: RecMerge, Blob: []byte("snapcodec snapshot stand-in")},
		{Type: RecMergeMax, Blob: []byte("max-join stand-in")},
		{Type: RecBatch, Keys: goldenLong()},
		{Type: RecBatch, Keys: []int{42}},
		{Type: RecOwn, Epoch: 7, Keys: []int{1, 5}, Parts: []int{2}, Owned: []int{0, 1, 2, 5}},
		{Type: RecEvict, Epoch: 3},
	}
	var got []Record
	stats, err := Replay(dir, 0, func(r Record) error {
		r.Blob = bytes.Clone(r.Blob)
		got = append(got, r)
		return nil
	})
	if err != nil || stats.Torn {
		t.Fatalf("replay: %v (torn %v)", err, stats.Torn)
	}
	if len(got) != len(want) {
		t.Fatalf("replayed %d records, want %d", len(got), len(want))
	}
	for i := range want {
		if !sameRecord(got[i], want[i]) {
			t.Fatalf("record %d: got %+v, want %+v", i, got[i], want[i])
		}
	}

	data, err := os.ReadFile(filepath.Join(dir, "wal-00000001.seg"))
	if err != nil {
		t.Fatal(err)
	}
	off := 16
	for i, rec := range want {
		frame := data[off : off+9+int(binary.LittleEndian.Uint32(data[off+1:]))]
		off += len(frame)
		again, err := encodeRecord(nil, rec)
		if err != nil {
			t.Fatal(err)
		}
		sortedBatch := (rec.Type == RecBatch || rec.Type == RecBatchAt) && slices.IsSorted(rec.Keys)
		if !sortedBatch && !bytes.Equal(again, frame) {
			t.Fatalf("record %d (type %d) re-encodes to different bytes", i, rec.Type)
		}
	}
	if off != len(data) {
		t.Fatalf("segment has %d bytes past the expected records", len(data)-off)
	}
}

// packedPayload builds a packed batch payload by hand: count, first key,
// then raw block bytes.
func packedPayload(count, first uint64, blocks ...byte) []byte {
	p := binary.AppendUvarint(nil, count)
	p = binary.AppendUvarint(p, first)
	return append(p, blocks...)
}

// A CRC-valid packed record that breaks the format is corruption, caught
// before anything beyond the payload's own bound is allocated.
func TestPackedBatchRejectsMalformed(t *testing.T) {
	for _, tc := range []struct {
		name    string
		typ     byte
		payload []byte
	}{
		{"empty payload", recPacked, nil},
		{"missing first key", recPacked, binary.AppendUvarint(nil, 3)},
		{"first key past 2^31-1", recPacked, packedPayload(1, 1<<31)},
		{"count beyond 64 per byte", recPacked, packedPayload(1<<40, 1, 0, 0)},
		{"missing gap block", recPacked, packedPayload(2, 1)},
		{"truncated gap block", recPacked, packedPayload(3, 1, 8, 0, 1)},
		{"gap block base width 65", recPacked, packedPayload(2, 1, 65, 0)},
		{"gap block exception width 0", recPacked, packedPayload(2, 1, 0, 1, 0, 0, 1)},
		{"gap block exception position outside", recPacked, packedPayload(2, 1, 0, 1, 1, 1, 1)},
		{"gap overflows the key range", recPacked, packedPayload(2, 1<<31-1, 1, 0, 1)},
		{"trailing bytes", recPacked, packedPayload(2, 1, 0, 0, 7)},
		{"trailing bytes after an empty batch", recPacked, []byte{0, 0}},
		{"batch-at missing epoch", recPackedAt, nil},
		{"batch-at first key past 2^31-1", recPackedAt, append([]byte{9}, packedPayload(1, 1<<31)...)},
	} {
		if rec, err := decodePayload(tc.typ, tc.payload); err == nil {
			t.Errorf("%s: decoded %+v", tc.name, rec)
		}
	}
	// Two repeated keys cost one 2-byte all-zero gap block.
	rec, err := decodePayload(recPacked, packedPayload(3, 9, 0, 0))
	if err != nil || !slices.Equal(rec.Keys, []int{9, 9, 9}) {
		t.Fatalf("all-zero gap block: %+v, %v", rec, err)
	}
}

// A directory fsync that fails while a segment is created is reported:
// at Open it fails the open, at a rotation it poisons the log, so Healthy
// says so and no later commit is acknowledged.
func TestSegmentDirectorySyncError(t *testing.T) {
	failing := errors.New("injected directory fsync failure")
	real := syncDir
	t.Cleanup(func() { syncDir = real })
	syncDir = func(string) error { return failing }

	if l, err := Open(t.TempDir(), Options{}); !errors.Is(err, failing) {
		if l != nil {
			l.Close()
		}
		t.Fatalf("Open with a failing directory sync: %v", err)
	}
	// SyncOff never fsyncs, the directory included.
	l, err := Open(t.TempDir(), Options{Policy: SyncOff})
	if err != nil {
		t.Fatalf("Open under SyncOff: %v", err)
	}
	l.Close()

	syncDir = real
	l, err = Open(t.TempDir(), Options{Policy: SyncInterval})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	if err := l.AppendBatch([]int{1, 2}); err != nil {
		t.Fatal(err)
	}
	syncDir = func(string) error { return failing }
	if _, err := l.Rotate(); !errors.Is(err, failing) {
		t.Fatalf("Rotate with a failing directory sync: %v", err)
	}
	if err := l.Healthy(); !errors.Is(err, failing) {
		t.Fatalf("Healthy after a failed rotation: %v", err)
	}
	if err := l.AppendBatch([]int{3}); err == nil {
		t.Fatal("append acknowledged after a failed rotation")
	}
}

// fuzzKeys derives a batch from the fuzz input in one of the shapes the
// log must round-trip.
func fuzzKeys(shape uint8, seed []byte) []int {
	var h uint64 = 0x9e3779b97f4a7c15
	for _, c := range seed {
		h = (h ^ uint64(c)) * 0x100000001b3
	}
	rng := xrand.NewSeeded(h)
	switch shape % 7 {
	case 0: // sorted: each byte is the next gap, 0 repeats the key
		keys, k := make([]int, 0, len(seed)), 0
		for _, c := range seed {
			k += int(c)
			keys = append(keys, k)
		}
		return keys
	case 1: // sorted with long repeats
		var keys []int
		k := 0
		for _, c := range seed {
			k += int(c & 0x0f)
			for r := 0; r < int(c>>2)+1; r++ {
				keys = append(keys, k)
			}
		}
		return keys
	case 2: // unsorted, as an HTTP batch arrives
		keys := make([]int, len(seed))
		for i := range keys {
			keys[i] = int(rng.Uint64() % (1 << 26))
		}
		return keys
	case 3: // a single key up to 2^26−1
		return []int{int(h % (1 << 26))}
	case 4: // key 0
		return make([]int, 1+len(seed)%3)
	case 5: // sorted keys anywhere below 2^26
		keys := make([]int, len(seed))
		for i := range keys {
			keys[i] = int(rng.Uint64() % (1 << 26))
		}
		slices.Sort(keys)
		return keys
	default: // sorted, 128·m − 1, 128·m or 128·m + 1 keys
		n := 128*(1+int(h%4)) + int(h>>8%3) - 1
		keys := make([]int, n)
		for i := range keys {
			keys[i] = int(rng.Uint64() % (1 << uint(1+h>>16%26)))
		}
		slices.Sort(keys)
		return keys
	}
}

// FuzzWALRecord: any payload of a batch record type decodes or fails
// without a panic and without allocating past the payload's own bound, and
// every batch — sorted or not, plain or epoch-tagged — decodes to what was
// encoded.
func FuzzWALRecord(f *testing.F) {
	for _, rec := range []Record{
		{Type: RecBatch, Keys: []int{5, 3, 300}},
		{Type: RecBatchAt, Epoch: 9, Keys: []int{2, 1}},
		{Type: RecBatch, Keys: goldenLong()},
		{Type: RecBatchAt, Epoch: 7, Keys: []int{0, 0, 1, 1 << 20}},
	} {
		frame, _ := encodeRecord(nil, rec)
		f.Add(frame[0], framePayload(frame), uint8(0), []byte{1, 0, 200})
	}
	for shape := uint8(0); shape < 7; shape++ {
		f.Add(recPacked, packedPayload(200, 3, 0, 0), shape, []byte{shape, 0, 0, 9, 255, 1})
	}
	f.Add(recPackedAt, []byte{1, 0x80, 0x80, 0x80, 0x80, 0x01}, uint8(6), []byte{})
	f.Fuzz(func(t *testing.T, typ byte, payload []byte, shape uint8, seed []byte) {
		typ = [4]byte{RecBatch, RecBatchAt, recPacked, recPackedAt}[typ%4]
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		rec, err := decodePayload(typ, payload)
		runtime.ReadMemStats(&after)
		bound := uint64(64*len(payload)+1) * 8
		if alloc := after.TotalAlloc - before.TotalAlloc; alloc > bound+64<<10 {
			t.Fatalf("decoding %d payload bytes allocated %d bytes", len(payload), alloc)
		}
		if err == nil {
			if uint64(len(rec.Keys)) > uint64(64*len(payload)+1) {
				t.Fatalf("%d keys from %d payload bytes", len(rec.Keys), len(payload))
			}
			for _, k := range rec.Keys {
				if k < 0 || k > maxKey {
					t.Fatalf("decoded key %d", k)
				}
			}
		}

		keys := fuzzKeys(shape, seed)
		for _, in := range []Record{
			{Type: RecBatch, Keys: keys},
			{Type: RecBatchAt, Epoch: uint64(len(seed)) << 33, Keys: keys},
		} {
			if got := roundTrip(t, in); !sameRecord(got, in) {
				t.Fatalf("shape %d, %d keys, type %d: round trip changed the record", shape%7, len(keys), in.Type)
			}
		}
	})
}

// Replaying a log whose sorted batches were packed gives back the staged
// key sequences, across segment rotations.
func TestPackedRecordsReplayAcrossSegments(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(dir, Options{SegmentBytes: 2048, Policy: SyncOff})
	if err != nil {
		t.Fatal(err)
	}
	var want []Record
	for i, b := range zipfBatches(100_000, 60, 300, 12) {
		rec := Record{Type: RecBatch, Keys: b}
		switch i % 3 {
		case 0:
			rec.Keys = slices.Sorted(slices.Values(b))
		case 1:
			rec = Record{Type: RecBatchAt, Epoch: uint64(i), Keys: slices.Sorted(slices.Values(b))}
		}
		if err := l.Append(rec); err != nil {
			t.Fatal(err)
		}
		want = append(want, rec)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	if segs, _ := listSegments(dir); len(segs) < 3 {
		t.Fatalf("want several segments, got %v", segs)
	}
	i := 0
	if _, err := Replay(dir, 0, func(r Record) error {
		if !sameRecord(r, want[i]) {
			return fmt.Errorf("record %d: got type %d with %d keys", i, r.Type, len(r.Keys))
		}
		i++
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if i != len(want) {
		t.Fatalf("replayed %d records, want %d", i, len(want))
	}
}
