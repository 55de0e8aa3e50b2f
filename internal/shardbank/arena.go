// Where a bank's registers live. New cuts every shard's slab (slab.go)
// from one allocation, each sized for its registers at the algorithm's
// width and starting on its own 64-byte line. From mapMinBytes up, where
// the build allows it (arena_unix.go), the allocation is one anonymous
// mapping outside the Go heap: the collector neither scans it nor counts
// it, so GOGC's heap goal — twice the live heap — stops doubling a node's
// largest structure, and a page of it becomes resident only when a slab
// grows into it. Below that line, or where a mapping is refused, it is an
// ordinary Go slice, held anyway by the heap goal's 4 MiB floor; a
// restored heap bank's slabs are cut from one slice of its planned words
// instead. The mapping is unmapped by a
// cleanup once the Bank is unreachable, so any method that keeps reading
// cached shard words after its last use of the Bank ends with
// runtime.KeepAlive(b).
package shardbank

import (
	"runtime"
	"unsafe"
)

// mapMinBytes is the smallest register allocation — every register at the
// algorithm's width — that New maps. GOGC = 100's heap goal is
// max(4 MiB, 2 × live heap): below the 4 MiB floor the registers sit
// inside heap the runtime keeps anyway, and mapping them would add their
// size to the process instead of saving it.
const mapMinBytes = 4 << 20

// lineWords is the words of one 64-byte cache line.
const lineWords = 8

// mapRegisters returns n zeroed words of an anonymous mapping starting on
// a 64-byte boundary, and records the mapping's size in b.mapped. It
// returns nil, and the slabs stay on the heap, for fewer than mapMinBytes,
// in a build that does not map (mapsRegisters), or when the mapping is
// refused.
func (b *Bank) mapRegisters(n int) []uint64 {
	if !mapsRegisters || 8*n < mapMinBytes {
		return nil
	}
	mem, err := mapAnon(8 * n)
	if err != nil {
		return nil
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
