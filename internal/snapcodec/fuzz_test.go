package snapcodec_test

import (
	"bytes"
	"errors"
	"testing"

	"repro/internal/bank"
	"repro/internal/engine"
	"repro/internal/shardbank"
	"repro/internal/snapcodec"
)

// FuzzDecodeNeverPanics feeds the decoder arbitrary bytes. Whatever decodes
// must re-encode, and decoding straight into a bank restorer — the way a
// store restores its checkpoints — must accept exactly the inputs that
// decoding to a snapshot and restoring a bank from it accepts, and restore
// the same registers.
func FuzzDecodeNeverPanics(f *testing.F) {
	f.Add(snapcodec.SeedSnapshotBytes(f, bank.NewMorrisAlg(0.005, 14)))
	f.Add([]byte("NYS1"))
	f.Add([]byte{})
	// Headers of the other algorithms, whose parameter slot bank.Decode
	// checks differently: a mantissa width, and zero.
	f.Add(snapcodec.SeedSnapshotBytes(f, bank.NewCsurosAlg(14, 6)))
	f.Add(snapcodec.SeedSnapshotBytes(f, bank.NewExactAlg(14)))
	f.Add(checkpointBytes(f))
	f.Fuzz(func(t *testing.T, data []byte) {
		s, err := snapcodec.Decode(data)
		if err == nil {
			// Whatever decoded must re-encode without error (it passed all
			// structural validation).
			if _, err := snapcodec.Encode(s); err != nil {
				// Canonical re-encode can still reject: Decode masks
				// registers by block width, not algorithm width — but it
				// validates against Width, so this would be a real bug.
				t.Fatalf("decoded snapshot failed re-encode: %v", err)
			}
		}
		streamedRestoreMatches(t, data)
	})
}

// checkpointBytes encodes what a bank store's full checkpoint holds: a
// whole bank with its generator states.
func checkpointBytes(f *testing.F) []byte {
	b := shardbank.New(700, bank.NewMorrisAlg(0.02, 12), 4, 3)
	for k := range 700 {
		b.IncrementBy(k, uint64(k))
	}
	snap, err := engine.NewBank(b).Snapshot(0, 0, true)
	if err != nil {
		f.Fatal(err)
	}
	defer snap.Release()
	data, err := snapcodec.Encode(snap)
	if err != nil {
		f.Fatal(err)
	}
	return data
}

// errNoRoom stops a streamed restore whose header claims more keys than
// the input can hold.
var errNoRoom = errors.New("header claims more registers than the input holds")

// streamedRestoreMatches decodes data into a bank restorer and checks it
// against DecodeFrom followed by engine.BankFromSnapshot: one fails exactly
// when the other does, and otherwise the two banks hold the same registers.
func streamedRestoreMatches(t *testing.T, data []byte) {
	var want *shardbank.Bank
	s, wantErr := snapcodec.DecodeFrom(bytes.NewReader(data))
	if wantErr == nil {
		var e *engine.BankEngine
		if e, wantErr = engine.BankFromSnapshot(s); wantErr == nil {
			want = e.Bank()
		}
	}

	var r *shardbank.Restorer
	h, gotErr := snapcodec.DecodeInto(bytes.NewReader(data), func(h *snapcodec.Snapshot) (snapcodec.RegisterSink, error) {
		// Every block of at most 256 registers costs at least two bytes, so
		// such a header's register section cannot be in the input and
		// both decodes fail; stop before allocating the bank.
		if h.N > 128*len(data) {
			return nil, errNoRoom
		}
		var err error
		if r, err = engine.BankRestorer(h); err != nil {
			return nil, err
		}
		return r, nil
	})
	var got *shardbank.Bank
	if gotErr == nil {
		got, gotErr = r.Finish(h.RNG)
	}

	if (wantErr == nil) != (gotErr == nil) {
		t.Fatalf("streamed restore error %v, decode-then-restore error %v", gotErr, wantErr)
	}
	if want == nil {
		return
	}
	if got.Len() != want.Len() || got.Shards() != want.Shards() {
		t.Fatalf("streamed bank %d keys in %d shards, want %d in %d", got.Len(), got.Shards(), want.Len(), want.Shards())
	}
	for i := range want.Len() {
		if got.Register(i) != want.Register(i) {
			t.Fatalf("register %d: streamed %d, want %d", i, got.Register(i), want.Register(i))
		}
	}
}
