package server

import (
	"slices"
	"sync"

	"repro/internal/metrics"
	"repro/internal/wal"
)

// ownership is the rebalance state the log records (internal/cluster): the
// ring of the last RecOwn epoch and its partition sets, pending ones less
// the installs logged since. Store.apply keeps it in step with the log, live
// and on replay, so a crashed node recovers exactly which transfers it
// still owes or is owed. mu is taken last: under writeMu on the write path,
// alone by the readers. The zero value has logged no epoch.
type ownership struct {
	mu     sync.Mutex
	ring   uint64
	sets   [3]map[int]bool // indexed by setPending, setFrozen, setOwned
	logged bool            // an ownership epoch was ever logged
}

// The partition sets of an ownership epoch, in RecOwn's field order.
const (
	setPending = iota
	setFrozen
	setOwned
)

// set replaces the state with a RecOwn record's.
func (o *ownership) set(rec *wal.Record) {
	o.mu.Lock()
	defer o.mu.Unlock()
	o.ring, o.logged = rec.Epoch, true
	o.sets = [3]map[int]bool{partSet(rec.Keys), partSet(rec.Parts), partSet(rec.Owned)}
}

// drop takes partition p out of set: an install clears its pending mark,
// an evict its frozen one.
func (o *ownership) drop(set, p int) {
	o.mu.Lock()
	defer o.mu.Unlock()
	delete(o.sets[set], p)
}

// has reports whether partition p is in set.
func (o *ownership) has(set, p int) bool {
	o.mu.Lock()
	defer o.mu.Unlock()
	return o.sets[set][p]
}

// size returns the number of partitions in set.
func (o *ownership) size(set int) int {
	o.mu.Lock()
	defer o.mu.Unlock()
	return len(o.sets[set])
}

// record returns the RecOwn record that reproduces the current state —
// lists sorted, so a re-logged record is byte-stable — and whether an
// ownership epoch was ever logged.
func (o *ownership) record() (wal.Record, bool) {
	o.mu.Lock()
	defer o.mu.Unlock()
	return wal.Record{Type: wal.RecOwn, Epoch: o.ring, Keys: sortedKeys(o.sets[setPending]),
		Parts: sortedKeys(o.sets[setFrozen]), Owned: sortedKeys(o.sets[setOwned])}, o.logged
}

// register adds the ownership gauges to reg.
func (o *ownership) register(reg *metrics.Registry) {
	reg.GaugeFunc("counterd_store_pending_partitions",
		"Partitions still awaiting their rebalance install (reads 421-shadow while > 0).",
		func() float64 { return float64(o.size(setPending)) })
	reg.GaugeFunc("counterd_store_frozen_partitions",
		"Surrendered partition copies held frozen for handoff.",
		func() float64 { return float64(o.size(setFrozen)) })
}

// Ownership returns the durable rebalance state: the ring version of the
// last recorded epoch, the partitions still pending install, the partitions
// held frozen for surrender, and the partitions owned on the recorded ring.
// ok is false when no ownership epoch was ever logged (a store that has
// never rebalanced).
func (st *Store) Ownership() (ring uint64, pending, frozen, owned []int, ok bool) {
	rec, ok := st.ledger.record()
	if !ok {
		return 0, nil, nil, nil, false
	}
	return rec.Epoch, rec.Keys, rec.Parts, rec.Owned, true
}

// PendingPartition reports whether partition p is still awaiting its
// rebalance install — the per-read check behind the cluster layer's 421
// shadowing, so it is a single map lookup.
func (st *Store) PendingPartition(p int) bool { return st.ledger.has(setPending, p) }

// FrozenPartition reports whether partition p is a surrendered copy this
// store still holds for handoff — the per-key check behind the cluster
// layer's replica-apply routing, so it is a single map lookup.
func (st *Store) FrozenPartition(p int) bool { return st.ledger.has(setFrozen, p) }

// partSet turns a logged partition list into a lookup set.
func partSet(parts []int) map[int]bool {
	set := make(map[int]bool, len(parts))
	for _, p := range parts {
		set[p] = true
	}
	return set
}

// sortedKeys flattens a partition set into a sorted list.
func sortedKeys(set map[int]bool) []int {
	out := make([]int, 0, len(set))
	for p := range set {
		out = append(out, p)
	}
	slices.Sort(out)
	return out
}
