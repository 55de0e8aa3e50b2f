package engine

import (
	"bytes"
	"maps"
	"slices"
	"testing"

	"repro/internal/bank"
	"repro/internal/snapcodec"
	"repro/internal/xrand"
)

// The bucket ring's semantics, tested once for every engine built on it: a
// random walk of Advance / ApplyBatch / ApplyBatchEpoch / MergeMax checked
// step by step against a naive map[epoch]bucket model. The model knows
// nothing about slots or relabelling: a shard is a clock plus one bucket of
// per-key counts for every epoch in (cur−B, cur] it has lived through.
//
// The engines are deterministic here (exact registers, HLL ranks, AMS
// cells), so "what the ring holds" can be compared exactly against a fresh
// engine that was only ever fed the model's live traffic.

const (
	modelN     = 90
	modelParts = 3
	modelB     = 4
)

type modelBucket map[int]int // key → events

func (b modelBucket) events() int {
	n := 0
	for _, c := range b {
		n += c
	}
	return n
}

type modelShard struct {
	cur     uint64
	buckets map[uint64]modelBucket // exactly the epochs in (cur−B, cur] ∩ seen
}

func newModel() []*modelShard {
	m := make([]*modelShard, modelParts)
	for s := range m {
		m[s] = &modelShard{buckets: map[uint64]modelBucket{0: {}}}
	}
	return m
}

// advance moves the clock: every epoch passed through is seen, and whatever
// fell out of the trailing B is forgotten.
func (m *modelShard) advance(e uint64) {
	for ee := m.cur + 1; ee <= e; ee++ {
		if ee+modelB > e {
			m.buckets[ee] = modelBucket{}
		}
	}
	m.cur = max(m.cur, e)
	maps.DeleteFunc(m.buckets, func(ep uint64, _ modelBucket) bool { return ep+modelB <= m.cur })
}

func (m *modelShard) add(epoch uint64, key int) bool {
	b, live := m.buckets[epoch]
	if live {
		b[key]++
	}
	return live
}

type ringModelCase struct {
	name string
	mk   func() (Windowed, *ring)
	// join is the replica join of two buckets of one epoch; ok is false when
	// the model cannot call it (an f2 takeover tie between different streams
	// of one length, which the engine breaks on cell bytes).
	join func(local, peer modelBucket) (joined modelBucket, ok bool)
}

func maxJoin(local, peer modelBucket) (modelBucket, bool) {
	out := maps.Clone(local)
	for k, c := range peer {
		out[k] = max(out[k], c)
	}
	return out, true
}

func must[E any](e E, err error) E {
	if err != nil {
		panic(err)
	}
	return e
}

var ringModelCases = []ringModelCase{
	{"window", func() (Windowed, *ring) {
		e := must(NewWindow(modelN, bank.NewExactAlg(16), modelParts, modelB, 0, 7))
		return e, e.ring
	}, maxJoin},
	{"distinct-window", func() (Windowed, *ring) {
		e := must(NewDistinctWindow(modelN, modelParts, 5, modelB, 0, 7))
		return e, e.ring
	}, maxJoin},
	{"f2-window", func() (Windowed, *ring) {
		e := must(NewF2Window(modelN, modelParts, 3, 4, modelB, 0, 7))
		return e, e.ring
	}, func(local, peer modelBucket) (modelBucket, bool) {
		switch l, p := local.events(), peer.events(); {
		case p > l:
			return peer, true
		case p < l || maps.Equal(local, peer):
			return local, true
		}
		return nil, false
	}},
}

func bucketKeys(b modelBucket) []int {
	var keys []int
	for k, c := range b {
		for ; c > 0; c-- {
			keys = append(keys, k)
		}
	}
	return keys
}

// replay builds a fresh engine that has seen exactly shard's live traffic,
// epoch by epoch.
func (c ringModelCase) replay(shard *modelShard) Windowed {
	e, _ := c.mk()
	for _, ep := range slices.Sorted(maps.Keys(shard.buckets)) {
		e.Advance(ep)
		e.ApplyBatch(bucketKeys(shard.buckets[ep]))
	}
	e.Advance(shard.cur)
	return e
}

// check compares the engine against the model: clocks, the labelled epoch
// set, and — against a replay of only the live traffic — every windowed
// estimate and the canonical partition bytes.
func (c ringModelCase) check(t *testing.T, step int, e Windowed, r *ring, model []*modelShard) {
	t.Helper()
	for s, m := range model {
		sh := r.shards[s]
		if sh.cur != m.cur {
			t.Fatalf("step %d shard %d: clock %d, model %d", step, s, sh.cur, m.cur)
		}
		var labelled []uint64
		for j, ep := range sh.epochs {
			if ep%modelB == uint64(j) {
				labelled = append(labelled, ep)
			}
		}
		slices.Sort(labelled)
		if want := slices.Sorted(maps.Keys(m.buckets)); !slices.Equal(labelled, want) {
			t.Fatalf("step %d shard %d: live epochs %v, model %v (clock %d)", step, s, labelled, want, m.cur)
		}
		ref := c.replay(m)
		lo, hi := snapcodec.PartitionRange(modelN, modelParts, s)
		for w := 1; w <= modelB; w++ {
			for key := lo; key < hi; key++ {
				got, err := e.EstimateWindow(key, w)
				if err != nil {
					t.Fatal(err)
				}
				if want, _ := ref.EstimateWindow(key, w); got != want {
					t.Fatalf("step %d key %d window %d: estimate %v, live traffic alone gives %v", step, key, w, got, want)
				}
			}
		}
		if !bytes.Equal(encodePart(t, e, s), encodePart(t, ref, s)) {
			t.Fatalf("step %d shard %d: bytes differ from a replay of the live traffic", step, s)
		}
	}
}

func encodePart(t *testing.T, e Engine, part int) []byte {
	t.Helper()
	data, err := snapcodec.Encode(snapOf(t, e, part, modelParts, false))
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// walk drives steps random operations through a fresh engine and its model.
func (c ringModelCase) walk(t *testing.T, seed uint64, steps int) (Windowed, []*modelShard) {
	t.Helper()
	rng := xrand.NewSeeded(seed)
	e, r := c.mk()
	model := newModel()
	randKeys := func() []int {
		keys := make([]int, 1+rng.Intn(12))
		for i := range keys {
			keys[i] = rng.Intn(modelN)
		}
		return keys
	}
	clock := func() uint64 { return e.Epoch() }
	for step := 0; step < steps; step++ {
		switch rng.Intn(4) {
		case 0: // rotate: stale, by one, by a few, past the whole ring
			to := clock() + uint64([]int{0, 1, 1, 2, modelB, modelB + 3}[rng.Intn(6)])
			if to > 0 && rng.Intn(8) == 0 {
				to-- // a stale epoch is a no-op
			}
			e.Advance(to)
			for _, m := range model {
				m.advance(to)
			}
		case 1:
			keys := randKeys()
			e.ApplyBatch(keys)
			for _, k := range keys {
				m := model[snapcodec.PartitionOf(k, modelN, modelParts)]
				m.add(m.cur, k)
			}
		case 2: // an epoch-tagged drain: live, expired, or from the future
			keys := randKeys()
			epoch := clock() + uint64(rng.Intn(modelB+4))
			if back := uint64(modelB + 1); epoch >= back {
				epoch -= back
			}
			want := 0
			for _, k := range keys {
				if model[snapcodec.PartitionOf(k, modelN, modelParts)].add(epoch, k) {
					want++
				}
			}
			if got := e.ApplyBatchEpoch(keys, epoch); got != want {
				t.Fatalf("step %d: ApplyBatchEpoch(epoch %d) applied %d keys, model %d", step, epoch, got, want)
			}
		case 3: // max-join one partition of a replica whose clock differs
			peer := &modelShard{buckets: map[uint64]modelBucket{0: {}}}
			part := rng.Intn(modelParts)
			lo, hi := snapcodec.PartitionRange(modelN, modelParts, part)
			m := model[part]
			peerCur := m.cur + uint64(rng.Intn(modelB+4)) // from 3 behind to B ahead
			if peerCur >= 3 {
				peerCur -= 3
			}
			peer.advance(peerCur)
			for _, b := range peer.buckets {
				for i := rng.Intn(10); i > 0; i-- {
					b[lo+rng.Intn(hi-lo)]++
				}
			}
			joined := &modelShard{cur: m.cur, buckets: maps.Clone(m.buckets)}
			joined.advance(peer.cur)
			callable := true
			for ep, local := range joined.buckets {
				if pb, shared := peer.buckets[ep]; shared {
					var ok bool
					joined.buckets[ep], ok = c.join(local, pb)
					callable = callable && ok
				}
			}
			if !callable {
				continue
			}
			snap, err := snapcodec.Decode(encodePart(t, c.replay(peer), part))
			if err != nil {
				t.Fatal(err)
			}
			if err := e.CheckPeer(snap, false); err != nil {
				t.Fatal(err)
			}
			if err := e.MergeMax(snap); err != nil {
				t.Fatal(err)
			}
			model[part] = joined
		}
		c.check(t, step, e, r, model)
	}
	return e, model
}

func TestRingAgainstEpochBucketModel(t *testing.T) {
	for _, c := range ringModelCases {
		t.Run(c.name, func(t *testing.T) {
			a, _ := c.walk(t, 1, 150)
			b, _ := c.walk(t, 2, 150)
			// Two replicas with unrelated histories and clocks exchange every
			// partition, pull then push: byte-identical, and again a no-op.
			exchange := func(dst, src Windowed) {
				for p := 0; p < modelParts; p++ {
					snap, err := snapcodec.Decode(encodePart(t, src, p))
					if err != nil {
						t.Fatal(err)
					}
					if err := dst.CheckPeer(snap, false); err != nil {
						t.Fatal(err)
					}
					if err := dst.MergeMax(snap); err != nil {
						t.Fatal(err)
					}
				}
			}
			exchange(a, b)
			exchange(b, a)
			if !bytes.Equal(snapBytes(t, a), snapBytes(t, b)) {
				t.Fatal("replicas differ after exchanging every partition both ways")
			}
			before := snapBytes(t, a)
			exchange(a, b)
			if !bytes.Equal(before, snapBytes(t, a)) {
				t.Fatal("a second exchange changed a converged replica")
			}
		})
	}
}

// A peer payload's header may not make the engine allocate more than the
// peer actually sent: nine bytes declaring a 64 × 4096-cell sketch over 64
// buckets used to cost 128 MiB before the shape was even compared.
func TestRingPayloadAllocationBoundedByItsBytes(t *testing.T) {
	e, err := NewF2Window(1000, 4, 5, 64, 64, 0, 42)
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name    string
		payload []byte
	}{
		// version, windowed, rows, cols (uvarint 4096), B, bucketNanos, one shard, index 0
		{"foreign shape", []byte{1, 1, 64, 0x80, 0x20, 64, 0, 1, 0}},
		{"local shape, no cells", []byte{1, 1, 5, 64, 64, 0, 1, 0}},
	} {
		snap := &snapcodec.Snapshot{N: 1000, Shards: 4, Seed: 42, Engine: KindF2, Payload: tc.payload}
		if err := snap.SetAlg(f2Alg()); err != nil {
			t.Fatal(err)
		}
		var checkErr error
		got := allocatedBy(func() { checkErr = e.CheckPeer(snap, false) })
		if checkErr == nil {
			t.Errorf("%s: %d-byte payload accepted", tc.name, len(tc.payload))
		}
		if got >= 1<<20 {
			t.Errorf("%s: rejecting a %d-byte payload allocated %d bytes", tc.name, len(tc.payload), got)
		}
	}
}
