//go:build unix && !race

package shardbank

import "syscall"

// mapsRegisters: this build maps large banks (arena.go).
const mapsRegisters = true

func mapAnon(size int) ([]byte, error) {
	mem, err := syscall.Mmap(-1, 0, size, syscall.PROT_READ|syscall.PROT_WRITE, syscall.MAP_ANON|syscall.MAP_PRIVATE)
	if err == nil {
		pageByPage(mem)
	}
	return mem, err
}

// unmapAnon runs as the Bank's cleanup, with nobody to report to: a failed
// munmap leaves the mapping in place, which costs address space, not
// correctness.
func unmapAnon(mem []byte) { _ = syscall.Munmap(mem) }
