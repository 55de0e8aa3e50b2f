//go:build !unix || race

// Every bank's registers stay on the Go heap here: non-unix builds have no
// anonymous mapping to take, and the race detector checks only addresses
// inside its heap and data ranges, so a mapped register would go unchecked.

package shardbank

import "errors"

// mapsRegisters: this build keeps every bank on the heap (arena.go).
const mapsRegisters = false

func mapAnon(int) ([]byte, error) {
	return nil, errors.New("shardbank: no anonymous mappings in this build")
}

func unmapAnon([]byte) {}
