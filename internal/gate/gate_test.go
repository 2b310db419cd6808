package gate

import (
	"crypto/sha256"
	"testing"
)

func TestSHA256GateMatchesStdlib(t *testing.T) {
	g := SHA256{}
	in := []byte("hashcore gate test")
	if got, want := g.Sum(in), sha256.Sum256(in); got != want {
		t.Fatalf("SHA256 gate = %x, want %x", got, want)
	}
}

func TestGateNames(t *testing.T) {
	tests := []struct {
		g    Gate
		want string
	}{
		{SHA256{}, "sha256"},
		{Truncated{Bits: 12}, "sha256-truncated-12"},
		{Truncated{}, "sha256-truncated-16"},
	}
	for _, tt := range tests {
		if got := tt.g.Name(); got != tt.want {
			t.Errorf("Name() = %q, want %q", got, tt.want)
		}
	}
}

func TestTruncatedIsDeterministic(t *testing.T) {
	g := Truncated{Bits: 8}
	a := g.Sum([]byte("x"))
	b := g.Sum([]byte("x"))
	if a != b {
		t.Fatal("Truncated gate is not deterministic")
	}
}

// TestTruncatedCollidesQuickly verifies the gate is actually weak: with 8
// bits of entropy there are at most 256 distinct outputs, so 257 distinct
// inputs must contain a collision (pigeonhole).
func TestTruncatedCollidesQuickly(t *testing.T) {
	g := Truncated{Bits: 8}
	seen := make(map[[SeedSize]byte][]byte)
	for i := 0; i < 257; i++ {
		msg := []byte{byte(i), byte(i >> 8), 0xaa}
		d := g.Sum(msg)
		if _, ok := seen[d]; ok {
			return // collision found, as expected
		}
		seen[d] = msg
	}
	t.Fatal("no collision among 257 inputs to an 8-bit gate")
}

// TestTruncatedOutputCount verifies the number of distinct outputs is
// bounded by 2^Bits.
func TestTruncatedOutputCount(t *testing.T) {
	g := Truncated{Bits: 4}
	outputs := make(map[[SeedSize]byte]bool)
	for i := 0; i < 4096; i++ {
		outputs[g.Sum([]byte{byte(i), byte(i >> 8)})] = true
	}
	if len(outputs) > 16 {
		t.Fatalf("4-bit truncated gate produced %d distinct outputs, want <= 16", len(outputs))
	}
}

func TestUitoa(t *testing.T) {
	tests := []struct {
		in   uint
		want string
	}{{0, "0"}, {7, "7"}, {42, "42"}, {65535, "65535"}}
	for _, tt := range tests {
		if got := uitoa(tt.in); got != tt.want {
			t.Errorf("uitoa(%d) = %q, want %q", tt.in, got, tt.want)
		}
	}
}
