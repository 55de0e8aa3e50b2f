package engine

import (
	"encoding/binary"
	"errors"
	"fmt"

	"repro/internal/bank"
	"repro/internal/snapcodec"
)

// split is the n-key, parts-way partition layout the per-partition engines
// (the bucket ring's, top-k) stripe their state by: shard s owns the keys of
// snapcodec.PartitionRange(n, parts, s), the same split the cluster
// replicates by, so a partition snapshot is exactly one shard.
type split struct{ n, parts int }

func newSplit(n, parts int) (split, error) {
	if n <= 0 {
		return split{}, errors.New("engine: non-positive key-space size")
	}
	if parts < 1 || parts > snapcodec.MaxPartitions {
		return split{}, fmt.Errorf("engine: partition count %d out of [1, %d]", parts, snapcodec.MaxPartitions)
	}
	if parts > n {
		return split{}, fmt.Errorf("engine: %d partitions exceed %d keys", parts, n)
	}
	return split{n, parts}, nil
}

// Len implements Engine.
func (p split) Len() int { return p.n }

// Shards implements Engine.
func (p split) Shards() int { return p.parts }

// AlignPartitions implements Engine: state is per-partition, so the serving
// split must match the engine's stripe count.
func (p split) AlignPartitions() int { return p.parts }

// byShard groups keys by owning shard — a stable counting sort, so batch
// order survives within a shard and WAL replay is exact — and calls fn once
// per non-empty shard, ascending.
func (p split) byShard(keys []int, fn func(s int, run []int)) {
	if len(keys) == 0 {
		return
	}
	if p.parts == 1 {
		fn(0, keys)
		return
	}
	counts := make([]int, p.parts+1)
	for _, k := range keys {
		counts[snapcodec.PartitionOf(k, p.n, p.parts)+1]++
	}
	for s := 1; s <= p.parts; s++ {
		counts[s] += counts[s-1]
	}
	sorted := make([]int, len(keys))
	offsets := append([]int(nil), counts[:p.parts]...)
	for _, k := range keys {
		s := snapcodec.PartitionOf(k, p.n, p.parts)
		sorted[offsets[s]] = k
		offsets[s]++
	}
	for s := 0; s < p.parts; s++ {
		if lo, hi := counts[s], counts[s+1]; lo < hi {
			fn(s, sorted[lo:hi])
		}
	}
}

// checkAligned validates that [lo, hi) tiles exactly onto shards and returns
// their index range [s0, s1).
func (p split) checkAligned(lo, hi int) (int, int, error) {
	if lo < 0 || hi > p.n || lo >= hi {
		return 0, 0, fmt.Errorf("engine: key range [%d, %d) outside [0, %d)", lo, hi, p.n)
	}
	s0 := snapcodec.PartitionOf(lo, p.n, p.parts)
	s1 := snapcodec.PartitionOf(hi-1, p.n, p.parts) + 1
	first, _ := snapcodec.PartitionRange(p.n, p.parts, s0)
	_, last := snapcodec.PartitionRange(p.n, p.parts, s1-1)
	if first != lo || last != hi {
		return 0, 0, fmt.Errorf("engine: key range [%d, %d) not aligned to the %d-way partition split",
			lo, hi, p.parts)
	}
	return s0, s1, nil
}

// shardRange resolves a (part, parts) snapshot address to the shard index
// range [s0, s1) it covers: every shard for parts == 0, else the one.
func (p split) shardRange(part, parts int) (int, int, error) {
	if parts == 0 {
		return 0, p.parts, nil
	}
	if parts != p.parts {
		return 0, 0, fmt.Errorf("engine: %d-way split of a %d-way engine", parts, p.parts)
	}
	if part < 0 || part >= parts {
		return 0, 0, fmt.Errorf("engine: partition %d out of [0, %d)", part, parts)
	}
	return part, part + 1, nil
}

// snapshotHeader starts an engine snapshot of the whole key space
// (parts == 0) or one partition, returning it with the shard range
// [s0, s1) whose state the caller adds.
func (p split) snapshotHeader(kind string, alg bank.Algorithm, seed uint64, part, parts int, withState bool) (*snapcodec.Snapshot, int, int, error) {
	s0, s1, err := p.shardRange(part, parts)
	if err != nil {
		return nil, 0, 0, err
	}
	snap := &snapcodec.Snapshot{N: p.n, Shards: p.parts, Seed: seed, Engine: kind}
	if err := snap.SetAlg(alg); err != nil {
		return nil, 0, 0, err
	}
	if parts != 0 {
		if withState {
			return nil, 0, 0, errors.New("engine: partition snapshots cannot carry generator state")
		}
		snap.Partition, snap.Parts = part, parts
	}
	return snap, s0, s1, nil
}

// checkPeerHeader is the CheckPeer prologue: engine kind, header algorithm,
// key-space shape and partition split must equal the local engine's.
func (p split) checkPeerHeader(snap *snapcodec.Snapshot, kind string, local bank.Algorithm) error {
	if snap.Engine != kind {
		peer := snap.Engine
		if peer == "" {
			peer = KindBank
		}
		return fmt.Errorf("engine kind mismatch: peer %q, local %q", peer, kind)
	}
	alg, err := snap.Alg()
	if err != nil {
		return err
	}
	if alg != local {
		return fmt.Errorf("algorithm mismatch: peer %s/%d-bit, local %s/%d-bit",
			snap.AlgName, snap.Width, local.Name(), local.Width())
	}
	if snap.N != p.n || snap.Shards != p.parts {
		return fmt.Errorf("shape mismatch: peer %d keys/%d shards, local %d/%d",
			snap.N, snap.Shards, p.n, p.parts)
	}
	if snap.IsPartition() && snap.Parts != p.parts {
		return fmt.Errorf("partition split mismatch: peer %d-way, local %d-way", snap.Parts, p.parts)
	}
	return nil
}

// payloadReader is a tiny cursor over engine-payload bytes with sticky
// errors.
type payloadReader struct {
	data []byte
	pos  int
	err  error
}

func (d *payloadReader) byte() byte {
	if d.err != nil || d.pos >= len(d.data) {
		d.fail()
		return 0
	}
	b := d.data[d.pos]
	d.pos++
	return b
}

func (d *payloadReader) uvarint() uint64 {
	if d.err != nil {
		return 0
	}
	v, n := binary.Uvarint(d.data[d.pos:])
	if n <= 0 {
		d.fail()
		return 0
	}
	d.pos += n
	return v
}

func (d *payloadReader) u64() uint64 {
	if d.err != nil || d.pos+8 > len(d.data) {
		d.fail()
		return 0
	}
	v := binary.LittleEndian.Uint64(d.data[d.pos:])
	d.pos += 8
	return v
}

func (d *payloadReader) fail() {
	if d.err == nil {
		d.err = errors.New("truncated")
	}
}

// done reports the reader's sticky error, or trailing bytes.
func (d *payloadReader) done(kind string) error {
	if d.err != nil {
		return fmt.Errorf("engine: %s payload: %w", kind, d.err)
	}
	if d.pos != len(d.data) {
		return fmt.Errorf("engine: %s payload has %d trailing bytes", kind, len(d.data)-d.pos)
	}
	return nil
}
