//go:build unix && !linux && !race

package shardbank

// pageByPage: this system's mappings are left as the kernel makes them
// (arena_linux.go).
func pageByPage([]byte) {}
