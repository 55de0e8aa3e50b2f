package engine

import (
	"bytes"
	"crypto/sha256"
	"fmt"
	"strings"
	"testing"

	"repro/internal/bank"
	"repro/internal/shardbank"
	"repro/internal/snapcodec"
)

// The ring engines' other tests are self-consistent round trips: a format
// drift that both the writer and the reader share would pass all of them.
// This file pins bytes instead. One scripted history per engine flavour —
// batches, rotation by one bucket and by more than the ring, epoch-tagged
// applies at a live, an expired and a future epoch, a disjoint Merge, a
// MergeMax of one partition from a replica whose clock is ahead, a partition
// evict, restore and continue — and SHA-256 digests of everything the engine
// emits, compared against constants recorded at the commit BEFORE the bucket
// ring was unified (023c5dd). They are never regenerated to make a refactor
// pass: a mismatch means emitted bytes changed.
//
// Black-box on purpose: exported constructors plus Engine/Windowed only.

const (
	pinN     = 1003 // not a multiple of pinParts: shard spans differ
	pinParts = 4
	pinB     = 4
	pinSeed  = 42
)

type pinCase struct {
	name string
	mk   func() (Engine, error)
	want string
}

var pinCases = []pinCase{
	{"window-morris", func() (Engine, error) {
		return NewWindow(pinN, bank.NewMorrisAlg(0.05, 12), pinParts, pinB, int64(1e9), pinSeed)
	}, pinWindowMorris},
	{"window-csuros", func() (Engine, error) {
		return NewWindow(pinN, bank.NewCsurosAlg(14, 6), pinParts, pinB, int64(1e9), pinSeed)
	}, pinWindowCsuros},
	{"distinct", func() (Engine, error) { return NewDistinct(pinN, pinParts, 6, pinSeed) }, pinDistinct},
	{"distinct-window", func() (Engine, error) {
		return NewDistinctWindow(pinN, pinParts, 6, pinB, int64(1e9), pinSeed)
	}, pinDistinctWindow},
	{"f2", func() (Engine, error) { return NewF2(pinN, pinParts, 3, 8, pinSeed) }, pinF2},
	{"f2-window", func() (Engine, error) {
		return NewF2Window(pinN, pinParts, 3, 8, pinB, int64(1e9), pinSeed)
	}, pinF2Window},
	{"topk", func() (Engine, error) {
		return NewTopK(pinN, bank.NewMorrisAlg(0.05, 12), pinParts, 16, pinSeed)
	}, pinTopK},
}

// pinTranscript accumulates "label value" lines: the pinned output of one
// scripted history.
type pinTranscript struct {
	t *testing.T
	b strings.Builder
}

func (p *pinTranscript) line(label string, v any) { fmt.Fprintf(&p.b, "%s %v\n", label, v) }

func (p *pinTranscript) sum(label string, data []byte) {
	p.line(label, fmt.Sprintf("%x", sha256.Sum256(data)))
}

func (p *pinTranscript) encoded(e Engine, part, parts int, withState bool) []byte {
	p.t.Helper()
	data, err := snapcodec.Encode(snapOf(p.t, e, part, parts, withState))
	if err != nil {
		p.t.Fatal(err)
	}
	return data
}

// decoded returns e's snapshot as a peer receives it: through the codec.
func (p *pinTranscript) decoded(e Engine, part, parts int, withState bool) *snapcodec.Snapshot {
	p.t.Helper()
	snap, err := snapcodec.Decode(p.encoded(e, part, parts, withState))
	if err != nil {
		p.t.Fatal(err)
	}
	return snap
}

// emitted records everything an engine can emit about its current state.
func (p *pinTranscript) emitted(stage string, e Engine) {
	p.t.Helper()
	p.sum(stage+".checkpoint", p.encoded(e, 0, 0, true))
	p.sum(stage+".serving", p.encoded(e, 0, 0, false))
	p.sum(stage+".partition1", p.encoded(e, 1, pinParts, false))
	lo, hi := snapcodec.PartitionRange(pinN, pinParts, 1)
	for _, r := range [][2]int{{0, pinN}, {lo, hi}} {
		h, err := e.HashRange(r[0], r[1])
		if err != nil {
			p.t.Fatal(err)
		}
		p.line(fmt.Sprintf("%s.hash[%d,%d)", stage, r[0], r[1]), fmt.Sprintf("%016x", h))
	}
	for _, parts := range []int{0, pinParts} {
		bh, err := e.BlockHashes(1, parts)
		if err != nil {
			p.line(fmt.Sprintf("%s.blockhashes/%d", stage, parts), "unsupported")
			continue
		}
		var buf bytes.Buffer
		for _, h := range bh {
			fmt.Fprintf(&buf, "%016x", h)
		}
		p.line(fmt.Sprintf("%s.blockhashes/%d", stage, parts), fmt.Sprintf("%d:%x", len(bh), sha256.Sum256(buf.Bytes())))
	}
	p.line(stage+".dirtycount", e.DirtyCount())
	blocks, ok := e.TakeDirty()
	p.line(stage+".dirty", fmt.Sprintf("%v %v", ok, blocks))
	p.line(stage+".estimate", fmt.Sprintf("%.6f %.6f", e.Estimate(3), e.Estimate(pinN-1)))
}

func pinApply(e Engine, events int, seed uint64) {
	for _, b := range batches(zipfKeys(pinN, events, 1.05, seed), 97) {
		e.ApplyBatch(b)
	}
}

// pinHistory runs the scripted history and returns its transcript.
func pinHistory(t *testing.T, mk func() (Engine, error)) string {
	t.Helper()
	p := &pinTranscript{t: t}
	build := func() Engine {
		e, err := mk()
		if err != nil {
			t.Fatal(err)
		}
		return e
	}
	e := build()
	w, windowed := e.(Windowed)
	late := zipfKeys(pinN, 120, 1.05, 99)

	pinApply(e, 700, 1)
	if windowed {
		w.Advance(1)
		pinApply(e, 300, 2)
		w.Advance(3) // epoch 2 is rotated through, never written locally
		pinApply(e, 200, 3)
		p.line("epoch@3.live2", w.ApplyBatchEpoch(late, 2))
	}
	p.emitted("early", e)
	if windowed {
		w.Advance(9) // jump ≥ B: whole-ring relabel
		pinApply(e, 250, 4)
		p.line("epoch@9.live8", w.ApplyBatchEpoch(late, 8))
		p.line("epoch@9.expired3", w.ApplyBatchEpoch(late, 3))
		p.line("epoch@9.future12", w.ApplyBatchEpoch(late, 12))
		p.line("clock", w.Epoch())
	}

	// A disjoint site whose clock is ahead, folded in whole.
	site := build()
	pinApply(site, 400, 5)
	if sw, ok := site.(Windowed); ok {
		sw.Advance(10)
		pinApply(site, 200, 6)
		sw.Advance(11)
		pinApply(site, 100, 7)
	}
	siteSnap := p.decoded(site, 0, 0, false)
	if err := e.CheckPeer(siteSnap, true); err != nil {
		p.line("merge", "rejected")
	} else {
		if err := e.Merge(siteSnap); err != nil {
			t.Fatalf("checked Merge failed: %v", err)
		}
		p.line("merge", "ok")
	}

	// A replica further ahead still, max-joined on one partition only: that
	// shard's clock now leads its siblings'.
	replica := build()
	pinApply(replica, 500, 8)
	if rw, ok := replica.(Windowed); ok {
		rw.Advance(12)
		pinApply(replica, 200, 9)
		rw.Advance(13)
		pinApply(replica, 100, 10)
	}
	replicaSnap := p.decoded(replica, 1, pinParts, false)
	if err := e.CheckPeer(replicaSnap, false); err != nil {
		t.Fatalf("replica partition rejected: %v", err)
	}
	if err := e.MergeMax(replicaSnap); err != nil {
		t.Fatalf("checked MergeMax failed: %v", err)
	}
	if windowed {
		p.line("clock.merged", w.Epoch())
		p.line("epoch.merged.live13", w.ApplyBatchEpoch(late, 13))
		p.line("epoch.merged.live11", w.ApplyBatchEpoch(late, 11))
	}
	p.emitted("merged", e)

	lo, hi := snapcodec.PartitionRange(pinN, pinParts, 2)
	if err := e.ResetRange(lo, hi); err != nil {
		t.Fatal(err)
	}
	p.emitted("evicted", e)

	// Restore from the checkpoint image and continue on both: restart
	// exactness, and the restored engine's bytes are pinned too.
	restored, err := FromSnapshot(p.decoded(e, 0, 0, true))
	if err != nil {
		t.Fatal(err)
	}
	for _, eng := range []Engine{e, restored} {
		if ew, ok := eng.(Windowed); ok {
			ew.Advance(14)
		}
		pinApply(eng, 300, 11)
	}
	if !bytes.Equal(p.encoded(e, 0, 0, true), p.encoded(restored, 0, 0, true)) {
		t.Error("restored engine diverged from the original on the same continuation")
	}
	p.emitted("restored", restored)
	return p.b.String()
}

func TestRingEngineBytesPinned(t *testing.T) {
	for _, c := range pinCases {
		t.Run(c.name, func(t *testing.T) {
			got := pinHistory(t, c.mk)
			if got != strings.TrimLeft(c.want, "\n") {
				t.Errorf("emitted bytes drifted from the pinned transcript; got:\n%s", got)
			}
		})
	}
}

// Store.Open type-asserts Windowed to decide whether to stage RecTick
// records, so a cumulative engine that picked up the windowed method set
// would silently change its WAL.
func TestCumulativeEnginesAreNotWindowed(t *testing.T) {
	mk := func(e Engine, err error) Engine {
		if err != nil {
			t.Fatal(err)
		}
		return e
	}
	for _, e := range []Engine{
		NewBank(shardbank.New(pinN, bank.NewMorrisAlg(0.05, 12), 8, pinSeed)),
		mk(NewTopK(pinN, bank.NewMorrisAlg(0.05, 12), pinParts, 16, pinSeed)),
		mk(NewDistinct(pinN, pinParts, 6, pinSeed)),
		mk(NewF2(pinN, pinParts, 3, 8, pinSeed)),
	} {
		if _, ok := e.(Windowed); ok {
			t.Errorf("%T satisfies Windowed", e)
		}
		if _, ok := e.(WindowRangeEstimator); ok {
			t.Errorf("%T satisfies WindowRangeEstimator", e)
		}
	}
}

const pinWindowMorris = `
epoch@3.live2 120
early.checkpoint e2ce8d56ef4e7cf3e47c8e7e00e1303ad60f191a4e427456f417a6feb51020b8
early.serving 8e0a01f0f045f90ba1313fab8260dc902a86c28b205669e7243952a0967aab2d
early.partition1 a99c4c23b82092ab878151ff6b249b7d1c94eabd0e69700913817c689777ad03
early.hash[0,1003) 03381d19756bc74e
early.hash[251,502) 0bfff085c01486e6
early.blockhashes/0 32:408532801bf73b6f9cc5220afd64a9e4cc146bf77105b0d2e9911d3dad8caa2e
early.blockhashes/4 8:25537b4d49cacb04c5f4ab2e50b94932bc4de426447b60d2aa8d815846c87db4
early.dirtycount 31
early.dirty true [0 1 2 3 4 5 6 7 8 9 10 11 12 13 14 15 16 17 18 19 20 21 22 23 24 25 26 27 28 29 30]
early.estimate 54.063861 0.000000
epoch@9.live8 120
epoch@9.expired3 0
epoch@9.future12 0
clock 9
merge ok
clock.merged 13
epoch.merged.live13 10
epoch.merged.live11 120
merged.checkpoint bc06f91f267ee7a83e53e794bd9c685eaf849eb79614591e01db29901c23e9d2
merged.serving 0c1c35b690bbe3a944a7c6fc581046949e08ebda5d7a1f0809d6f98ccc585f8c
merged.partition1 2b2f1080ae0432fa7f425d15034a3d318171739f12060ca6f204aa67842b3424
merged.hash[0,1003) 07483b63515caf92
merged.hash[251,502) 9486975a7cbb9166
merged.blockhashes/0 32:a9757df8bb46256109cda8463d6b3dfaf443fde8d7d9a1da8f9e37ed68e50033
merged.blockhashes/4 8:1a652b99b08d80324f039014084db849afca17d1a178c19ff2c6ad45cc00288d
merged.dirtycount 32
merged.dirty true [0 1 2 3 4 5 6 7 8 9 10 11 12 13 14 15 16 17 18 19 20 21 22 23 24 25 26 27 28 29 30 31]
merged.estimate 27.603458 0.000000
evicted.checkpoint dce09fb63a5e3eb493055dbd30c00a5d8cb4d1ef409d8be83f697b83328fe912
evicted.serving 1088f8d8ed6b3b6c71987b2a171f39e1066e0dd67d62f98ed347446116c633f5
evicted.partition1 2b2f1080ae0432fa7f425d15034a3d318171739f12060ca6f204aa67842b3424
evicted.hash[0,1003) 0a3f98d335533ed1
evicted.hash[251,502) 9486975a7cbb9166
evicted.blockhashes/0 32:c986867a76323b4053bbecbd0867858e63c682fd71c1015e03547dff00ef6f04
evicted.blockhashes/4 8:1a652b99b08d80324f039014084db849afca17d1a178c19ff2c6ad45cc00288d
evicted.dirtycount 9
evicted.dirty true [15 16 17 18 19 20 21 22 23]
evicted.estimate 27.603458 0.000000
restored.checkpoint 6c33ab690ca11055bc66e211fbaebeea98e12455f6aaec8ff68a730eb0c9eeaa
restored.serving d9b575e03d4b86f94814990160e87aa073474a76f93f5cd735392aacb052f906
restored.partition1 ef43145a9c8e42d2935eb671f781fcfa0b1e060b4ae3fc6a6b4f227637c9b5e5
restored.hash[0,1003) 9ae911260385f1b7
restored.hash[251,502) d33bf74435c8d080
restored.blockhashes/0 32:a118b6987f0b22ad469b7a1c73acd00774c789ca566a63b16071612076c678b0
restored.blockhashes/4 8:1dc90820d1ba7efa759fde0ffc3d60e6e09aa290c77b1b58c7d87c73496c948e
restored.dirtycount 32
restored.dirty true [0 1 2 3 4 5 6 7 8 9 10 11 12 13 14 15 16 17 18 19 20 21 22 23 24 25 26 27 28 29 30 31]
restored.estimate 20.575673 0.000000
`

const pinWindowCsuros = `
epoch@3.live2 120
early.checkpoint ef0906c7c28bf1fea3da06185a817f52065fa4b1c6651b34b94e6088380ac92c
early.serving 1e6fb9e0452ce415a39f6d7f3ed025db7d4afd3b7d24cdb17ebb2a54a0c31e7a
early.partition1 b5dca1406399a8cd7bce0a2aa8104f60b54390cc773e1fb5615a6e8c7641586c
early.hash[0,1003) 06a2597d4d7acc05
early.hash[251,502) 0bfff085c01486e6
early.blockhashes/0 32:7a4d4f2276f629901eaaf359bf4a4787331f14b9fe93e46c2d991f449978b31c
early.blockhashes/4 8:25537b4d49cacb04c5f4ab2e50b94932bc4de426447b60d2aa8d815846c87db4
early.dirtycount 31
early.dirty true [0 1 2 3 4 5 6 7 8 9 10 11 12 13 14 15 16 17 18 19 20 21 22 23 24 25 26 27 28 29 30]
early.estimate 61.000000 0.000000
epoch@9.live8 120
epoch@9.expired3 0
epoch@9.future12 0
clock 9
merge rejected
clock.merged 13
epoch.merged.live13 10
epoch.merged.live11 10
merged.checkpoint 02c96c5c8e751611c69a852e23e148d011c71fc9d85d949963f0e7de627aa52d
merged.serving 2d54d9e5ad061f3b2baf0f92d91606966e346cd2bfbdae7d50612d5f948dd568
merged.partition1 ca4f006f918547b9e52db235e95ade93d44a7197e07cbd431d6fcc98805514da
merged.hash[0,1003) ac4e61aa441fabc1
merged.hash[251,502) 8e5974e67359b165
merged.blockhashes/0 32:389a01038dc1addca2af740908988ff4606e9876540098057c4f761effdd2ae5
merged.blockhashes/4 8:1306369c1b2b909418fe97119d6d81db99a4adbd5cf5c687b1a317e64f5208f1
merged.dirtycount 32
merged.dirty true [0 1 2 3 4 5 6 7 8 9 10 11 12 13 14 15 16 17 18 19 20 21 22 23 24 25 26 27 28 29 30 31]
merged.estimate 12.000000 0.000000
evicted.checkpoint c544f57297d78255d5ede549189c9d9ee339e133d4f4a3a4f9a4d4bcf735054e
evicted.serving 81b53f8c7c594d3db2bb3e7836fee2a3f581fc31262d2b803962d567cc7de9d5
evicted.partition1 ca4f006f918547b9e52db235e95ade93d44a7197e07cbd431d6fcc98805514da
evicted.hash[0,1003) 0de6123fcad410a1
evicted.hash[251,502) 8e5974e67359b165
evicted.blockhashes/0 32:6b1563c30dc28cd565ffe93ef23a82f5e87ed8c3306eda78ccc3b236b1244828
evicted.blockhashes/4 8:1306369c1b2b909418fe97119d6d81db99a4adbd5cf5c687b1a317e64f5208f1
evicted.dirtycount 5
evicted.dirty true [15 16 17 18 19]
evicted.estimate 12.000000 0.000000
restored.checkpoint d306bd37e3d9efb10c650c81b53d5ee9a6f24c7e23471788b525d36081c65c03
restored.serving 599367aaf753f0be36e5cb84fde07946f1a4a8322385d2a99e4dd004ce932cca
restored.partition1 d05e493ada5834d44396b3ef6560c8b066b97df84837ceb37d8d53cda84293ef
restored.hash[0,1003) 3aa08f0e273b4dd1
restored.hash[251,502) 6e880bcd4f8317a1
restored.blockhashes/0 32:f2545c165deb5ac1452f5f57e17aa1405444aaf5f7e0f781a954f6b0c30aea3a
restored.blockhashes/4 8:db2e562539d3d3c334029f144fa0d3bd95398166c617a753995d58570fb8405b
restored.dirtycount 32
restored.dirty true [0 1 2 3 4 5 6 7 8 9 10 11 12 13 14 15 16 17 18 19 20 21 22 23 24 25 26 27 28 29 30 31]
restored.estimate 9.000000 0.000000
`

const pinDistinct = `
early.checkpoint 382a670b36bb3099e0b303e1b6220761551f1979ac8e2e064f4e3da86b078921
early.serving 382a670b36bb3099e0b303e1b6220761551f1979ac8e2e064f4e3da86b078921
early.partition1 4ad991e1d40af1f0270cfe8e27846841a3dbff394980abfb2920a4fc2d5af47b
early.hash[0,1003) 0a54ecda239b97c3
early.hash[251,502) 664dfb7ed718db45
early.blockhashes/0 2:67600f11a56f4231fa47c611df856907d7e5c879f962a11a42fd2f9c8c7e0e64
early.blockhashes/4 1:496deb38697c913dcdfffae1f73c1baf9f05f0cf023aaeb704569e1155302006
early.dirtycount 2
early.dirty true [0 1]
early.estimate 141.630268 18.411653
merge ok
merged.checkpoint 800c3621e77eefe72997703f8b2a4f52026fccda5127322021fa213a08558304
merged.serving 800c3621e77eefe72997703f8b2a4f52026fccda5127322021fa213a08558304
merged.partition1 938647e6ab6163b9a3c54704a3e5ecb5c359b4ac6cfa95ebe5303720cc38d2e7
merged.hash[0,1003) 96eed0f93ac80e4e
merged.hash[251,502) 0724e6a46089e2e7
merged.blockhashes/0 2:652a688862433009f0a64cadde66d187663d8041e5596af7cfcdf0a10e88f1c6
merged.blockhashes/4 1:00f94a9da6a83e5f06f4dc26ee949c9078d79720d7a470d9c55b476456bf7e0a
merged.dirtycount 2
merged.dirty true [0 1]
merged.estimate 169.648099 36.823305
evicted.checkpoint 6c7f8b976d094fa0e5b1af538cef667e3544ab6b90b66aa3e852846c4108fce9
evicted.serving 6c7f8b976d094fa0e5b1af538cef667e3544ab6b90b66aa3e852846c4108fce9
evicted.partition1 938647e6ab6163b9a3c54704a3e5ecb5c359b4ac6cfa95ebe5303720cc38d2e7
evicted.hash[0,1003) 5d221faa324dd727
evicted.hash[251,502) 0724e6a46089e2e7
evicted.blockhashes/0 2:7340b4d1263922a4696ec7a3b5d45fe35d7bddff8e7278c8293a46dc28768d08
evicted.blockhashes/4 1:00f94a9da6a83e5f06f4dc26ee949c9078d79720d7a470d9c55b476456bf7e0a
evicted.dirtycount 1
evicted.dirty true [1]
evicted.estimate 169.648099 36.823305
restored.checkpoint d44b9dfc3e0cdd7bfd93d78b7a71d2091ab7871d2f61d4afb277f3ae6b984393
restored.serving d44b9dfc3e0cdd7bfd93d78b7a71d2091ab7871d2f61d4afb277f3ae6b984393
restored.partition1 b15861115bff0c1b4c2e8c36f3b85982f31d366dade22da3730a09ded4303d01
restored.hash[0,1003) f85d39bd3e832585
restored.hash[251,502) 771daeb0a88beda2
restored.blockhashes/0 2:73c9b450dfe0261e374f079b2f4621c282f66c905ac16b9d10cd21a4f3724375
restored.blockhashes/4 1:f403c90edda6f2c6298fda91df90428e7ee09c9b38556266672423f3646572b2
restored.dirtycount 2
restored.dirty true [0 1]
restored.estimate 184.831968 48.491885
`

const pinDistinctWindow = `
epoch@3.live2 120
early.checkpoint 47b2c7b5ad51f9d6af331203190670fde66c7925f82089ed90ee9f452a79a98d
early.serving 47b2c7b5ad51f9d6af331203190670fde66c7925f82089ed90ee9f452a79a98d
early.partition1 c6b12e6855191b65d6767f971bde1377e0a34bc8180df0ca0d45cea12bfa3d24
early.hash[0,1003) 65a45bf206734b43
early.hash[251,502) 8efe295556bc6044
early.blockhashes/0 8:255852db58417c5b58f69af0ade568dad9143cae423ccd0c2c43440111500960
early.blockhashes/4 2:6e546407ce1f0f2a176fc38f11700c0231fb00723ef6a937d8fb9eb9ac0e1f0c
early.dirtycount 8
early.dirty true [0 1 2 3 4 5 6 7]
early.estimate 166.971451 28.499905
epoch@9.live8 120
epoch@9.expired3 0
epoch@9.future12 0
clock 9
merge ok
clock.merged 13
epoch.merged.live13 10
epoch.merged.live11 120
merged.checkpoint 6fc6c86a787050e283b9b7cda06ae25efa5bcb15e361d3adc1a7bf6f95d81a87
merged.serving 6fc6c86a787050e283b9b7cda06ae25efa5bcb15e361d3adc1a7bf6f95d81a87
merged.partition1 129133b0cbadfd9267049ca457dfa35065b7cbadbf34cc90ed43a7fe083558da
merged.hash[0,1003) 6c165ee84285ed6b
merged.hash[251,502) 0202c3114ffe2a60
merged.blockhashes/0 8:c15af97136ac078cc332a6c7587f0f898e0bfa21f7642a68cfaf3be4063b6dff
merged.blockhashes/4 2:cb885d1bfb5fe6ba8250c27695ee5a82affd09c824d82d342cbfa2c83823bf54
merged.dirtycount 8
merged.dirty true [0 1 2 3 4 5 6 7]
merged.estimate 141.630268 19.759071
evicted.checkpoint 303fdbb9e2485ef04bb05864bcc3bd47b1b42244f1eb7dfe4ff44b8dd879dd8c
evicted.serving 303fdbb9e2485ef04bb05864bcc3bd47b1b42244f1eb7dfe4ff44b8dd879dd8c
evicted.partition1 129133b0cbadfd9267049ca457dfa35065b7cbadbf34cc90ed43a7fe083558da
evicted.hash[0,1003) 84c437d5d0d9044a
evicted.hash[251,502) 0202c3114ffe2a60
evicted.blockhashes/0 8:d9dacd6b032831c3068221319b21dad9f2c2fab8b31587aae9184e7e57cf88f1
evicted.blockhashes/4 2:cb885d1bfb5fe6ba8250c27695ee5a82affd09c824d82d342cbfa2c83823bf54
evicted.dirtycount 2
evicted.dirty true [4 5]
evicted.estimate 141.630268 19.759071
restored.checkpoint 29f761086735f11a851f5d4b44692bb7428aaa462e89233c0c7cd5568b2e89e0
restored.serving 29f761086735f11a851f5d4b44692bb7428aaa462e89233c0c7cd5568b2e89e0
restored.partition1 eff96bd8e5c40997de5a53e4c84a4a8c7bb2c538ad5f20b1ad01190f9dadc0b1
restored.hash[0,1003) 68802766f69ff40f
restored.hash[251,502) d8bf3b244e0c9ee7
restored.blockhashes/0 8:e023e7d7eb2845ce26396000f638cc91233c7ef7bb40c1286870d36b6c77278e
restored.blockhashes/4 2:95e921201b30f0329404c0f7e87376268de25e83493ef907502eb6d00fdd785e
restored.dirtycount 8
restored.dirty true [0 1 2 3 4 5 6 7]
restored.estimate 102.011758 17.092018
`

const pinF2 = `
early.checkpoint c405110f6e8c8b45d36ae11f3836586f07b9ca62add20fd097ed47a0566795c1
early.serving c405110f6e8c8b45d36ae11f3836586f07b9ca62add20fd097ed47a0566795c1
early.partition1 cbced48e0c73dcf813ab483f671e3d8b950ce8e54f8e7fdf5d12e082200373cb
early.hash[0,1003) 1c34eb0b737cc9de
early.hash[251,502) 794c16f7a1272ed0
early.blockhashes/0 unsupported
early.blockhashes/4 unsupported
early.dirtycount 0
early.dirty false []
early.estimate 14834.000000 27.000000
merge ok
merged.checkpoint 8584f15e85899765abd108c4a4b2991c80a14eac4bf0d4e32cfc1befd4e1bcc3
merged.serving 8584f15e85899765abd108c4a4b2991c80a14eac4bf0d4e32cfc1befd4e1bcc3
merged.partition1 5deb8cafe08ff3da015282c0f0d8dedb668e243455f2a7ff6cc84310d04d4c29
merged.hash[0,1003) eb96618fb55a7c36
merged.hash[251,502) 40c5eab731f2eaae
merged.blockhashes/0 unsupported
merged.blockhashes/4 unsupported
merged.dirtycount 0
merged.dirty false []
merged.estimate 38907.000000 48.500000
evicted.checkpoint 6c981ab798b8147b8fb911d5b6815d71e0b0cac7cd852aa4f3c403bb3da5d0c8
evicted.serving 6c981ab798b8147b8fb911d5b6815d71e0b0cac7cd852aa4f3c403bb3da5d0c8
evicted.partition1 5deb8cafe08ff3da015282c0f0d8dedb668e243455f2a7ff6cc84310d04d4c29
evicted.hash[0,1003) fdd839b4b6657bb4
evicted.hash[251,502) 40c5eab731f2eaae
evicted.blockhashes/0 unsupported
evicted.blockhashes/4 unsupported
evicted.dirtycount 0
evicted.dirty false []
evicted.estimate 38907.000000 48.500000
restored.checkpoint 530b57c7c681153dc9584e9eae966f75ea54abb9de08353b3ec9d44504018a38
restored.serving 530b57c7c681153dc9584e9eae966f75ea54abb9de08353b3ec9d44504018a38
restored.partition1 40bf1f8e18a8bc56924425bdc469ac1e70ce8f04e9cfc7e017d888b30642523a
restored.hash[0,1003) 408bb233be9709a6
restored.hash[251,502) a4f235d814ff5ee1
restored.blockhashes/0 unsupported
restored.blockhashes/4 unsupported
restored.dirtycount 0
restored.dirty false []
restored.estimate 60960.000000 67.000000
`

const pinF2Window = `
epoch@3.live2 120
early.checkpoint 04fb2eae7fc3d913eb26999414075aa4552c9411175376cbe29e07e39607142b
early.serving 04fb2eae7fc3d913eb26999414075aa4552c9411175376cbe29e07e39607142b
early.partition1 61b1a0956bc2a1f22cd1935d916b3a17ff1f35c1c81b7b5abf39eac597855e12
early.hash[0,1003) c0a42c625c5ff08e
early.hash[251,502) 09cfc1dd85d2d132
early.blockhashes/0 unsupported
early.blockhashes/4 unsupported
early.dirtycount 0
early.dirty false []
early.estimate 60886.500000 46.000000
epoch@9.live8 120
epoch@9.expired3 0
epoch@9.future12 0
clock 9
merge ok
clock.merged 13
epoch.merged.live13 10
epoch.merged.live11 120
merged.checkpoint a106be83b97716c4a82e691d3197ac8a35281b644421c162c7b40cc144595c08
merged.serving a106be83b97716c4a82e691d3197ac8a35281b644421c162c7b40cc144595c08
merged.partition1 99ccc8658bb6c061a49449e19af26a24dcf8cfdd16eca3b944bc1e1680b7e5b7
merged.hash[0,1003) ccd251ac60ef1c05
merged.hash[251,502) 73add3fcbf56bfec
merged.blockhashes/0 unsupported
merged.blockhashes/4 unsupported
merged.dirtycount 0
merged.dirty false []
merged.estimate 22765.000000 37.000000
evicted.checkpoint a1d884749eb6232748d9acf3de34eb6ee8b6d1f78618d58fe6cea17af3216f71
evicted.serving a1d884749eb6232748d9acf3de34eb6ee8b6d1f78618d58fe6cea17af3216f71
evicted.partition1 99ccc8658bb6c061a49449e19af26a24dcf8cfdd16eca3b944bc1e1680b7e5b7
evicted.hash[0,1003) 3f5242450a178f1f
evicted.hash[251,502) 73add3fcbf56bfec
evicted.blockhashes/0 unsupported
evicted.blockhashes/4 unsupported
evicted.dirtycount 0
evicted.dirty false []
evicted.estimate 22765.000000 37.000000
restored.checkpoint d8541dccbbba8c50cb56dd31165065b0d98eec77ece77f7cb9a4b28aa9b46531
restored.serving d8541dccbbba8c50cb56dd31165065b0d98eec77ece77f7cb9a4b28aa9b46531
restored.partition1 d2492f47b62d9b6f83c43e058eeee40ab1e3a3c3d32d8988f76be922db474d27
restored.hash[0,1003) 03186708e77550c3
restored.hash[251,502) bfa5df77a4193f5f
restored.blockhashes/0 unsupported
restored.blockhashes/4 unsupported
restored.dirtycount 0
restored.dirty false []
restored.estimate 9576.000000 15.000000
`

const pinTopK = `
early.checkpoint e9d28112db16549003a91fb0c3d76cf66f95a4924b2baf570f3cd96ff8ca6276
early.serving 105d3b8a01ceb07cf0290616e55c980278fe81c2241b675eda95aec074ac27f1
early.partition1 7ebc462ba2437afbae815cbf02d76bb0b63c026408eb4baa9b6441e457b62e0d
early.hash[0,1003) f9a7f10e414da664
early.hash[251,502) 3b6bcdc55e3b1351
early.blockhashes/0 unsupported
early.blockhashes/4 unsupported
early.dirtycount 0
early.dirty false []
early.estimate 33.065954 0.000000
merge ok
merged.checkpoint 0b308a54c769e26a4e85c9daa925378d805c1d50c7a25932a93f7d41d19f7535
merged.serving 77ced0ca4d454d8012791bb85de1571a0110c4ac79c9a5b98f77e5ff37980cba
merged.partition1 f9dfb4beefe76a03f99083f944e97b61bc784fe09524a744acd39d2060980f0a
merged.hash[0,1003) 7df1d7201aa9f6c8
merged.hash[251,502) 3512af03bb49bbe6
merged.blockhashes/0 unsupported
merged.blockhashes/4 unsupported
merged.dirtycount 0
merged.dirty false []
merged.estimate 62.322712 0.000000
evicted.checkpoint b17749a5a9998aa635901e59a60c15262968c1b49dc183ee379c225dd5f2ad72
evicted.serving dc89f09c7203e915f36ea49294b5d85c0ca72a4a2eed890b5976d9feedc0c630
evicted.partition1 f9dfb4beefe76a03f99083f944e97b61bc784fe09524a744acd39d2060980f0a
evicted.hash[0,1003) 1c27aa4a185ff6c0
evicted.hash[251,502) 3512af03bb49bbe6
evicted.blockhashes/0 unsupported
evicted.blockhashes/4 unsupported
evicted.dirtycount 0
evicted.dirty false []
evicted.estimate 62.322712 0.000000
restored.checkpoint dcc478f11d2f84e10d06a9c854651d1569dedce8b399d39c970ad9bd30f35c40
restored.serving c1d568c9621ee79786940295343a53e0d5c6c6060a8d83b05e4d47811e88c17b
restored.partition1 af4bb226d7ea7b5ec4354f5a68f76139c5a9758afec545dc8e87a39485f25c91
restored.hash[0,1003) 1fae3ff83c8fa9a4
restored.hash[251,502) 86db7ee97a2169e1
restored.blockhashes/0 unsupported
restored.blockhashes/4 unsupported
restored.dirtycount 0
restored.dirty false []
restored.estimate 75.298829 0.000000
`
