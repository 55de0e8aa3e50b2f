// Copy-on-write cuts: how a View reads a key range exactly as it stood at
// one instant without copying it first — the copy-on-update checkpoint of
// Cao et al., "Fast Checkpoint Recovery Algorithms for Frequently
// Consistent Applications" (SIGMOD 2011).
//
// The unit is the chunk: local slots [c·128, (c+1)·128) of every shard, so
// keys [c·128·P, (c+1)·128·P) of the global order. A shard's part of a
// chunk is the chunk of its slab (slab.go): whole words at the chunk's own
// width, so chunks never share a word and saving every chunk costs exactly
// the bank's size. A cut saves a chunk's words with the width they are
// packed at, before the write that could widen it. A cut marks each
// (shard, chunk) of its range pending while it holds every shard lock.
// Until the cut is released, the first writer about to change a register
// of a pending (shard, chunk) saves the shard's words of it into the cut
// and clears the bit, under that shard's lock. A reader, under the same
// lock, copies the saved words if there are any and the live ones
// otherwise — either way the words of the instant of the cut. What a cut
// holds beyond the reader's one chunk is what writers changed while it was
// open: at most one copy of the range, what a frozen copy used to cost up
// front.
//
// The active-cut list changes only under every shard lock, so a writer
// reads it under its own; with no cut active, cow costs one branch.
package shardbank

import "slices"

// cut is the writer-facing half of a View: which (shard, chunk) pairs still
// hold their words of the instant of the cut, and the words writers saved
// from the others. pending and saved[si] are guarded by shard si's lock,
// done by all of them.
type cut struct {
	b      *Bank
	c0, c1 int // chunks [c0, c1] overlap the cut's key range
	wps    int // pending words per shard
	// pending holds shard si's bits at words [si·wps, (si+1)·wps): bit
	// c−c0 is set until a writer saves (si, c).
	pending []uint64
	saved   []map[int]savedChunk // saved[si][c]: shard si's chunk c at the cut
	done    bool
}

// savedChunk is a chunk's words as they stood at the cut, and their width.
type savedChunk struct {
	words []uint64
	width uint
}

// newCut prepares a cut of keys [lo, hi), lo < hi, with every chunk
// pending. It is not active until FreezeRange lists it under the locks.
func (b *Bank) newCut(lo, hi int) *cut {
	cs := b.shift + chunkShift
	ct := &cut{
		b:     b,
		c0:    lo >> cs,
		c1:    (hi - 1) >> cs,
		saved: make([]map[int]savedChunk, len(b.shards)),
	}
	nc := ct.c1 - ct.c0 + 1
	ct.wps = (nc + 63) / 64
	ct.pending = make([]uint64, len(b.shards)*ct.wps)
	for si := range b.shards {
		for c := 0; c < nc; c++ {
			ct.pending[si*ct.wps+c>>6] |= 1 << (c & 63)
		}
	}
	return ct
}

// CutBytes returns what a view of keys [lo, hi) allocates up front: its
// chunk buffer and its pending bitmap. Copies writers make during the read
// come on top (CutCopyBytes).
func (b *Bank) CutBytes(lo, hi int) int {
	if hi <= lo {
		return 0
	}
	cs := b.shift + chunkShift
	nc := (hi-1)>>cs - lo>>cs + 1
	return 8 * (b.chunkBufWords() + len(b.shards)*((nc+63)/64))
}

// chunkBufWords sizes a view's chunk buffer: every shard's words of one
// chunk at the algorithm's width, back to back.
func (b *Bank) chunkBufWords() int {
	words := 0
	for _, s := range b.shards {
		words += packedWords(min(chunkLen, s.n), uint(b.width))
	}
	return words
}

// CutCopyBytes returns the bytes currently held by copy-on-write saves
// across every open view of the bank.
func (b *Bank) CutCopyBytes() int64 { return b.cutBytes.Load() }

// cow runs before a writer changes local slot l of shard si, under that
// shard's lock: every active cut still owed the chunk's words keeps them.
func (b *Bank) cow(si, l int) {
	for _, ct := range b.cuts {
		ct.save(si, l>>chunkShift)
	}
}

// bit locates (si, c)'s pending bit.
func (ct *cut) bit(si, c int) (*uint64, uint64) {
	i := c - ct.c0
	return &ct.pending[si*ct.wps+i>>6], 1 << (i & 63)
}

// save keeps shard si's words of chunk c if the cut still needs them.
// Caller holds shard si's lock.
func (ct *cut) save(si, c int) {
	if c < ct.c0 || c > ct.c1 {
		return
	}
	w, m := ct.bit(si, c)
	if *w&m == 0 {
		return
	}
	*w &^= m
	words, width := ct.b.shards[si].chunk(c)
	if ct.saved[si] == nil {
		ct.saved[si] = make(map[int]savedChunk)
	}
	ct.saved[si][c] = savedChunk{slices.Clone(words), width}
	ct.b.cutBytes.Add(int64(8 * len(words)))
}

// read copies shard si's words of chunk c as they stood at the cut into
// dst and returns the word count and their width: none past the shard's
// last chunk. Caller holds shard si's lock.
func (ct *cut) read(dst []uint64, si, c int) (int, uint) {
	if c >= len(ct.b.shards[si].tab) {
		return 0, 0
	}
	if w, m := ct.bit(si, c); *w&m != 0 {
		words, width := ct.b.shards[si].chunk(c)
		return copy(dst, words), width
	}
	sc := ct.saved[si][c]
	return copy(dst, sc.words), sc.width
}

// release deactivates the cut and drops its saved words. Idempotent.
func (ct *cut) release() {
	b := ct.b
	b.lockAll()
	defer b.unlockAll()
	if ct.done {
		return
	}
	ct.done = true
	b.cuts = slices.DeleteFunc(b.cuts, func(c *cut) bool { return c == ct })
	held := 0
	for _, m := range ct.saved {
		for _, sc := range m {
			held += len(sc.words)
		}
	}
	b.cutBytes.Add(-int64(8 * held))
	ct.saved, ct.pending = nil, nil
}
