//go:build linux && !race

package shardbank

import "syscall"

// pageByPage keeps transparent huge pages off a register mapping. A slab
// reaches only part of its shard's region, so a 2 MiB page faulted in at a
// slab's first write would make the regions of a dozen untouched slabs
// resident with it. The advice is only advice: where the kernel refuses
// it, the mapping still serves.
func pageByPage(mem []byte) { _ = syscall.Madvise(mem, syscall.MADV_NOHUGEPAGE) }
