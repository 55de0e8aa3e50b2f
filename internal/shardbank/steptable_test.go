package shardbank

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"testing"

	"repro/internal/bank"
)

// TestStepTablesPinned pins every fixed-point step table byte for byte: the
// SHA-256 of each table's entries as little-endian uint64s. A table decides
// every tabulated increment the service applies, so any change here changes
// the registers a seeded replay produces. csuros(16,1) covers exponents that
// underflow a float64 (they must stay the minimum step, 1); morris(1,1) and
// exact(1) are both [always, never].
func TestStepTablesPinned(t *testing.T) {
	cases := []struct {
		alg  bank.Algorithm
		want string
	}{
		{bank.NewMorrisAlg(0.005, 14), "00d24ce9cffac7718f9b6403f4a1496b44f14bbe704c419039c1fde4b5ef0ffd"},
		{bank.NewMorrisAlg(1, 1), "60c69a3e87bf5c4f1e546bec45f262690bcf5494c4ecac2616bf2f731afa152a"},
		{bank.NewMorrisAlg(0.01, 16), "6fe631e841f41c6471fd45a347ed7bf7376837e88392c97d1f1a82b554b2c55b"},
		{bank.NewCsurosAlg(16, 10), "3e3fae106d777d1b61a7001e1cf204dbd57a2899398fc58cf0950c859616d194"},
		{bank.NewCsurosAlg(14, 6), "da37b95584553311ccccc7db8d2ed4548d257e8390611c6eaaa653a5ac24ba17"},
		{bank.NewCsurosAlg(16, 1), "3b42ec7a4f3a1c840912eb5ab8ab062921b2741a7c4b27db92d184f08e9a5ce7"},
		{bank.NewCsurosAlg(2, 1), "37848a13c588d69ca483bae1d883751ae1a27368aa27aad51a191057aa102b68"},
		{bank.NewExactAlg(16), "a0cf018650d1cdc1dcecb8f01da22409bbb830a61c0d9847351bdc36674c6374"},
		{bank.NewExactAlg(1), "60c69a3e87bf5c4f1e546bec45f262690bcf5494c4ecac2616bf2f731afa152a"},
	}
	for _, c := range cases {
		table := buildStepTable(c.alg)
		if len(table) != 1<<c.alg.Width() {
			t.Fatalf("%s/%d: table has %d entries, want %d", c.alg.Name(), c.alg.Width(), len(table), 1<<c.alg.Width())
		}
		h := sha256.New()
		var word [8]byte
		for _, p := range table {
			binary.LittleEndian.PutUint64(word[:], p)
			h.Write(word[:])
		}
		if got := hex.EncodeToString(h.Sum(nil)); got != c.want {
			t.Errorf("%s/%d: step table sha256 %s, want %s", c.alg.Name(), c.alg.Width(), got, c.want)
		}
	}
}
