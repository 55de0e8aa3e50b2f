package bank

import "testing"

// RegisterForTest makes Decode rebuild the algorithm called name with decode
// until t ends, as it does the algorithms this package declares.
func RegisterForTest(t testing.TB, name string, decode func(width int, param uint64) (Algorithm, error)) {
	decoders[name] = decode
	t.Cleanup(func() { delete(decoders, name) })
}
