// Where a bank's registers live. New takes every shard's packed words from
// one allocation, each shard's slice starting on its own 64-byte line. A
// small allocation is an ordinary Go slice. From mapMinBytes up, where the
// build allows it (arena_unix.go), it is one anonymous mapping outside the
// Go heap: the collector neither scans it nor counts it, so GOGC's heap goal
// — twice the live heap — stops doubling a node's largest structure. The
// mapping is unmapped by a cleanup once the Bank is unreachable, so any
// method that keeps reading cached shard words after its last use of the
// Bank ends with runtime.KeepAlive(b).
package shardbank

import (
	"runtime"
	"unsafe"
)

// mapMinBytes is the smallest register allocation New maps. GOGC = 100's
// heap goal is max(4 MiB, 2 × live heap): below the 4 MiB floor the
// registers sit inside heap the runtime keeps anyway, and mapping them
// would add their full size to the process instead of saving it.
const mapMinBytes = 4 << 20

// lineWords is the words of one 64-byte cache line.
const lineWords = 8

// allocRegisters returns n zeroed words starting on a 64-byte boundary,
// mapped outside the Go heap when they are large enough and this build maps
// (mapsRegisters). b.mapped records the mapping's size.
func (b *Bank) allocRegisters(n int) []uint64 {
	if !mapsRegisters || 8*n < mapMinBytes {
		return heapWords(n)
	}
	mem, err := mapAnon(8 * n)
	if err != nil {
		return heapWords(n) // the heap serves where a mapping is refused
	}
	b.mapped = len(mem)
	runtime.AddCleanup(b, unmapAnon, mem)
	return unsafe.Slice((*uint64)(unsafe.Pointer(unsafe.SliceData(mem))), n)
}

// heapWords returns n zeroed words of the Go heap starting on a 64-byte
// boundary. The collector never moves a heap object, so the alignment holds.
func heapWords(n int) []uint64 {
	w := make([]uint64, n+lineWords-1)
	skip := int(-(uintptr(unsafe.Pointer(unsafe.SliceData(w))) / 8) & (lineWords - 1))
	return w[skip : skip+n : skip+n]
}

// lineUp rounds a word count up to whole cache lines.
func lineUp(words int) int { return (words + lineWords - 1) &^ (lineWords - 1) }
