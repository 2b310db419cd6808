// Package gate defines the hash gate abstraction from the HashCore paper.
//
// A hash gate is a conventional collision-resistant hash function (CRHF)
// used at the entry and exit of the HashCore pipeline (Figure 1 of the
// paper): the first gate turns an arbitrary input into the 256-bit hash
// seed; the second gate compresses seed||widget-output into the final
// digest. Theorem 1 reduces HashCore's collision resistance to the gate's,
// so the gate is the only cryptographic primitive in the system.
package gate

import (
	"crypto/sha256"
	"encoding/binary"
)

// SeedSize is the hash gate output size in bytes (256 bits), matching the
// paper's assumption that "each hash gate produces a 256-bit output".
const SeedSize = 32

// Gate is a hash gate: a function from arbitrary bit-strings to fixed-size
// digests. Implementations must be deterministic and stateless.
type Gate interface {
	// Sum returns the gate digest of msg.
	Sum(msg []byte) [SeedSize]byte
	// Name identifies the gate (used in CLI output and experiment logs).
	Name() string
}

// SHA256 is the production hash gate, backed by the standard library's
// assembly-optimized crypto/sha256. The zero value is ready to use.
type SHA256 struct{}

var _ Gate = SHA256{}

// Sum returns SHA-256(msg).
func (SHA256) Sum(msg []byte) [SeedSize]byte { return sha256.Sum256(msg) }

// Name returns "sha256".
func (SHA256) Name() string { return "sha256" }

// Truncated is a deliberately weakened gate for testing the Theorem 1
// reduction: it keeps only Bits bits of SHA-256 entropy (the rest of the
// digest is a deterministic expansion of those bits). Collisions can be
// found by brute force in about 2^(Bits/2) queries, which lets tests
// exercise the collision-extraction algorithm B from the paper's appendix.
//
// Truncated is NOT collision resistant by construction and must never be
// used outside tests; the hashcore package does not expose it.
type Truncated struct {
	// Bits is the number of effective entropy bits, 1..64.
	Bits uint
}

var _ Gate = Truncated{}

// Sum returns a digest with only t.Bits bits of entropy: the SHA-256 digest
// is truncated to t.Bits bits and then deterministically re-expanded to 32
// bytes so downstream code sees a full-size seed.
func (t Truncated) Sum(msg []byte) [SeedSize]byte {
	bits := t.Bits
	if bits == 0 || bits > 64 {
		bits = 16
	}
	full := sha256.Sum256(msg)
	kept := binary.BigEndian.Uint64(full[:8])
	if bits < 64 {
		kept &= (1 << bits) - 1
	}
	// Expand the kept bits back to 32 bytes through SHA-256 so the output
	// "looks like" a normal seed but depends only on the kept bits.
	var keptBytes [8]byte
	binary.BigEndian.PutUint64(keptBytes[:], kept)
	return sha256.Sum256(keptBytes[:])
}

// Name returns a name that records the truncation width.
func (t Truncated) Name() string {
	bits := t.Bits
	if bits == 0 || bits > 64 {
		bits = 16
	}
	return "sha256-truncated-" + uitoa(bits)
}

// uitoa formats a small unsigned integer without pulling in strconv for a
// single call site. (strconv is fine, but this keeps the gate package
// dependency-light for auditability.)
func uitoa(v uint) string {
	if v == 0 {
		return "0"
	}
	var buf [20]byte
	i := len(buf)
	for v > 0 {
		i--
		buf[i] = byte('0' + v%10)
		v /= 10
	}
	return string(buf[i:])
}
