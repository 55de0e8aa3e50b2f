package wire

import (
	"encoding/binary"
	"errors"
	"fmt"
	"sort"
)

// Batch payload layout (docs/FORMAT.md, "Wire protocol"):
//
//	uvarint pairs   — number of distinct keys
//	uvarint events  — total events (sum of all counts)
//	pairs × {
//	    uvarint keyDelta  — first pair: the key itself; later pairs: the
//	                        gap to the previous key, minus 1 (keys are
//	                        strictly increasing, so the real gap is ≥ 1)
//	    uvarint count-1   — events for this key, minus 1 (counts are ≥ 1)
//	}
//
// This is the delta+varint family of fastpfor-go's PackDelta: sorting
// makes the gaps small, coalescing makes the counts carry the duplication,
// and a Zipf batch of 4096 events usually packs under 2 bytes per distinct
// key. The WAL stores the expanded batch differently — its packed batch
// records bit-pack every gap, repeats included, in the snapshot register
// block layout (docs/FORMAT.md, "WAL segment").

// ErrBadBatch marks a batch payload the decoder rejected — the wire-level
// equivalent of server.ErrBadInput, mapped to code 400 in ERROR frames.
var ErrBadBatch = errors.New("wire: bad batch payload")

// AppendBatch coalesces keys (one element per event, any order, duplicates
// meaningful) into sorted (key, count) pairs, appends the packed payload to
// dst, and returns the extended slice. scratch (may be nil) is reused for
// the sort to keep steady-state encoding allocation-free.
func AppendBatch(dst []byte, keys []int, scratch []int) ([]byte, []int) {
	if cap(scratch) < len(keys) {
		scratch = make([]int, len(keys))
	}
	scratch = scratch[:len(keys)]
	copy(scratch, keys)
	sort.Ints(scratch)

	pairs := 0
	for i := 0; i < len(scratch); i++ {
		if i == 0 || scratch[i] != scratch[i-1] {
			pairs++
		}
	}
	dst = binary.AppendUvarint(dst, uint64(pairs))
	dst = binary.AppendUvarint(dst, uint64(len(scratch)))
	prev := 0
	for i := 0; i < len(scratch); {
		k := scratch[i]
		j := i + 1
		for j < len(scratch) && scratch[j] == k {
			j++
		}
		delta := k - prev
		if i > 0 {
			delta-- // strictly increasing: store gap-1
		}
		dst = binary.AppendUvarint(dst, uint64(delta))
		dst = binary.AppendUvarint(dst, uint64(j-i-1))
		prev = k
		i = j
	}
	return dst, scratch
}

// EncodeBatch is AppendBatch into a fresh buffer.
func EncodeBatch(keys []int) []byte {
	out, _ := AppendBatch(make([]byte, 0, 2*len(keys)+8), keys, nil)
	return out
}

// DecodeBatch unpacks a batch payload into the flat key slice the store
// applies (one element per event, ascending). It enforces, before and
// during expansion:
//
//   - events ≤ maxEvents (the store's MaxBatch — same cap as HTTP /inc)
//   - every key in [0, maxKey) when maxKey > 0
//   - keys strictly increasing, counts ≥ 1, declared totals consistent
//   - no over-allocation: both the pair walk and the key slice are sized
//     by validated bounds, never by attacker-declared counts alone
//
// Violations return ErrBadBatch-wrapped errors; the decoder never panics.
func DecodeBatch(payload []byte, maxEvents, maxKey int) ([]int, error) {
	pairs, n := binary.Uvarint(payload)
	if n <= 0 {
		return nil, fmt.Errorf("%w: undecodable pair count", ErrBadBatch)
	}
	payload = payload[n:]
	events, n := binary.Uvarint(payload)
	if n <= 0 {
		return nil, fmt.Errorf("%w: undecodable event count", ErrBadBatch)
	}
	payload = payload[n:]
	if pairs == 0 || events == 0 {
		return nil, fmt.Errorf("%w: empty batch", ErrBadBatch)
	}
	if maxEvents > 0 && events > uint64(maxEvents) {
		return nil, fmt.Errorf("%w: %d events exceed limit %d", ErrBadBatch, events, maxEvents)
	}
	if pairs > events {
		return nil, fmt.Errorf("%w: %d pairs exceed %d events", ErrBadBatch, pairs, events)
	}
	// Each pair costs ≥ 2 payload bytes, so a declared pair count beyond
	// len(payload)/2 cannot be satisfied — reject before trusting it.
	if pairs > uint64(len(payload)/2)+1 {
		return nil, fmt.Errorf("%w: %d pairs exceed payload size", ErrBadBatch, pairs)
	}

	keys := make([]int, 0, events)
	key := uint64(0)
	var total uint64
	for i := uint64(0); i < pairs; i++ {
		delta, n := binary.Uvarint(payload)
		if n <= 0 {
			return nil, fmt.Errorf("%w: undecodable key delta (pair %d)", ErrBadBatch, i)
		}
		payload = payload[n:]
		cnt, n := binary.Uvarint(payload)
		if n <= 0 {
			return nil, fmt.Errorf("%w: undecodable count (pair %d)", ErrBadBatch, i)
		}
		payload = payload[n:]
		if i > 0 {
			if delta == ^uint64(0) {
				return nil, fmt.Errorf("%w: key delta overflow (pair %d)", ErrBadBatch, i)
			}
			delta++ // stored as gap-1
		}
		if key+delta < key { // uint64 wraparound
			return nil, fmt.Errorf("%w: key delta overflow (pair %d)", ErrBadBatch, i)
		}
		key += delta
		if key > uint64(int(^uint(0)>>1)) || (maxKey > 0 && key >= uint64(maxKey)) {
			return nil, fmt.Errorf("%w: key %d out of range [0,%d)", ErrBadBatch, key, maxKey)
		}
		// cnt is stored as count-1; bound it against the declared event
		// budget BEFORE incrementing or summing, so a hostile count can
		// neither wrap the total nor drive the append loop past events.
		if cnt >= events-total {
			return nil, fmt.Errorf("%w: counts sum past declared %d events", ErrBadBatch, events)
		}
		cnt++
		total += cnt
		for c := uint64(0); c < cnt; c++ {
			keys = append(keys, int(key))
		}
	}
	if total != events {
		return nil, fmt.Errorf("%w: counts sum to %d, declared %d", ErrBadBatch, total, events)
	}
	if len(payload) != 0 {
		return nil, fmt.Errorf("%w: %d trailing bytes", ErrBadBatch, len(payload))
	}
	return keys, nil
}
