// Package cluster turns a set of counterd stores into one replicated
// service: a consistent-hash ring assigns every key-space partition to R
// replicas, a lightweight HTTP gossip protocol keeps the member list
// converged, a durable per-peer outbox (the WAL format, doubling as hinted
// handoff) fans acknowledged increments out to peer replicas, and an
// anti-entropy loop exchanges snapcodec-compressed partition snapshots so
// replicas converge to identical state after failures heal.
//
// The invariants the subsystem maintains:
//
//   - Determinism of routing: the ring is a pure function of (member set,
//     RF, vnodes), so every node and client derives identical routes from
//     the gossiped membership — no coordination service.
//   - Ack durability: the HTTP 200 for a write means a WAL-durable apply
//     on at least one replica; replication is asynchronous and
//     at-least-once on top of that.
//   - Join semantics: anti-entropy repairs replicas exclusively with the
//     engine's idempotent MergeMax (replicas absorb the SAME logical
//     stream — Remark 2.4 there would double-count; it remains the
//     explicit /v1/merge operation for disjoint off-cluster streams), and
//     merges only through quiescence/repair gates, because unconditional
//     max-joins of in-flight replicas measurably ratchet estimates upward.
//   - Convergence: once writes quiesce, every replica pair reaches
//     byte-identical partition snapshots (asserted on /v1/snapshot bytes by
//     the integration tests, for all three engines).
//
// See docs/CLUSTER.md for the protocol and its failure modes, and
// docs/OPERATIONS.md for the operator's view of the gates.
package cluster

import (
	"fmt"
	"sort"
)

// DefaultVNodes is the virtual-node count per member: enough that a 3–16
// node ring balances partition ownership within a few percent, cheap enough
// that ring rebuilds are microseconds.
const DefaultVNodes = 64

// hash64 is FNV-1a with a splitmix64 finalizer: FNV alone correlates the
// hashes of near-identical strings ("node#1" vs "node#2"), and ring balance
// depends on the vnode points being spread uniformly.
func hash64(s string) uint64 {
	h := uint64(14695981039346656037)
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= 1099511628211
	}
	h ^= h >> 30
	h *= 0xbf58476d1ce4e5b9
	h ^= h >> 27
	h *= 0x94d049bb133111eb
	h ^= h >> 31
	return h
}

// Ring is an immutable consistent-hash ring over a member set: vnodes
// points per member, partitions mapped to the first rf distinct members
// clockwise from the partition's hash. Two rings built from the same member
// set (any order), rf, and vnodes answer identically — that is what lets
// every node and every smart client route without coordination.
type Ring struct {
	members []string // sorted, deduplicated
	rf      int
	vnodes  int
	points  []ringPoint // sorted by hash
}

type ringPoint struct {
	hash   uint64
	member int32 // index into members
}

// NewRing builds a ring. rf is clamped to [1, len(members)]; a ring over
// zero members is valid and routes everything to nil.
func NewRing(members []string, rf, vnodes int) *Ring {
	if vnodes <= 0 {
		vnodes = DefaultVNodes
	}
	if rf < 1 {
		rf = 1
	}
	sorted := append([]string(nil), members...)
	sort.Strings(sorted)
	// Deduplicate: a member joining twice must not double its ring share.
	uniq := sorted[:0]
	for i, m := range sorted {
		if i == 0 || m != sorted[i-1] {
			uniq = append(uniq, m)
		}
	}
	r := &Ring{members: uniq, rf: rf, vnodes: vnodes}
	r.points = make([]ringPoint, 0, len(uniq)*vnodes)
	for mi, m := range uniq {
		for v := 0; v < vnodes; v++ {
			r.points = append(r.points, ringPoint{
				hash:   hash64(fmt.Sprintf("%s#%d", m, v)),
				member: int32(mi),
			})
		}
	}
	sort.Slice(r.points, func(i, j int) bool {
		if r.points[i].hash != r.points[j].hash {
			return r.points[i].hash < r.points[j].hash
		}
		return r.points[i].member < r.points[j].member // deterministic tie-break
	})
	return r
}

// Members returns the ring's member set, sorted.
func (r *Ring) Members() []string { return r.members }

// Version returns a stable fingerprint of the ring's routing inputs —
// member set, rf, vnodes. Because routing is a pure function of those
// inputs, two nodes (or a node and a client) reporting the same version
// answer every Replicas/Owns query identically; the rebalance handoff uses
// that to refuse transfers between nodes whose gossip has not converged
// yet. The empty ring has version 0.
func (r *Ring) Version() uint64 {
	if len(r.members) == 0 {
		return 0
	}
	h := hash64(fmt.Sprintf("ring/%d/%d/%d", r.rf, r.vnodes, len(r.members)))
	for _, m := range r.members {
		// Length-prefix each member so concatenations cannot collide.
		h ^= hash64(fmt.Sprintf("%d:%s", len(m), m))
		h *= 1099511628211
		h ^= h >> 29
	}
	if h == 0 {
		h = 1 // 0 is reserved for the empty ring
	}
	return h
}

// RF returns the effective replication factor (clamped to the member count
// at lookup time).
func (r *Ring) RF() int { return r.rf }

// Replicas returns the replica set of a partition: the first rf distinct
// members clockwise from hash("part/<p>"). The first entry is the primary.
// Returns nil on an empty ring.
func (r *Ring) Replicas(partition int) []string {
	if len(r.members) == 0 {
		return nil
	}
	want := r.rf
	if want > len(r.members) {
		want = len(r.members)
	}
	h := hash64(fmt.Sprintf("part/%d", partition))
	i := sort.Search(len(r.points), func(i int) bool { return r.points[i].hash >= h })
	out := make([]string, 0, want)
	seen := make(map[int32]bool, want)
	for scanned := 0; scanned < len(r.points) && len(out) < want; scanned++ {
		pt := r.points[(i+scanned)%len(r.points)]
		if !seen[pt.member] {
			seen[pt.member] = true
			out = append(out, r.members[pt.member])
		}
	}
	return out
}

// Primary returns the first replica of a partition ("" on an empty ring).
func (r *Ring) Primary(partition int) string {
	reps := r.Replicas(partition)
	if len(reps) == 0 {
		return ""
	}
	return reps[0]
}

// Owns reports whether member is one of partition's replicas.
func (r *Ring) Owns(member string, partition int) bool {
	for _, m := range r.Replicas(partition) {
		if m == member {
			return true
		}
	}
	return false
}
