package blockchain

import (
	"bytes"
	"testing"
)

// FuzzHeaderRoundTrip: any 84-byte buffer is a valid header encoding
// and must round-trip bit-exactly; any other length must be rejected
// with ErrBadHeader. Headers travel on the pool wire and in block-log
// records, so Marshal/UnmarshalHeader disagreeing on a single byte
// would fork validation.
func FuzzHeaderRoundTrip(f *testing.F) {
	f.Add(make([]byte, HeaderSize))
	f.Add(make([]byte, HeaderSize-1))
	f.Add(make([]byte, HeaderSize+1))
	f.Add([]byte{})
	h := Header{Version: 1, PrevHash: Hash{1}, MerkleRoot: Hash{2}, Time: 3, Bits: 0x1d00ffff, Nonce: 5}
	f.Add(h.Marshal())

	f.Fuzz(func(t *testing.T, data []byte) {
		got, err := UnmarshalHeader(data)
		if len(data) != HeaderSize {
			if err == nil {
				t.Fatalf("accepted %d-byte header", len(data))
			}
			return
		}
		if err != nil {
			t.Fatalf("rejected valid-length header: %v", err)
		}
		re := got.Marshal()
		if !bytes.Equal(re, data) {
			t.Fatalf("round trip moved bytes:\n in  %x\n out %x", data, re)
		}
		// And the prefix view must agree with the full serialization.
		if !bytes.Equal(got.MiningPrefix(), data[:HeaderSize-8]) {
			t.Fatal("MiningPrefix disagrees with Marshal")
		}
	})
}

// FuzzVerifyMerkleProof: a freshly built proof must verify, and any
// single-bit mutation of a path element — or any substitution of the
// transaction — must not. (Index mutations are excluded: the final odd
// leaf self-pairs at every level, making its proof index-ambiguous by
// construction; the unit tests pin the even-index cases.)
func FuzzVerifyMerkleProof(f *testing.F) {
	f.Add(uint8(1), uint8(1), uint8(0), uint8(0), uint8(0))
	f.Add(uint8(7), uint8(5), uint8(3), uint8(2), uint8(11))
	f.Add(uint8(0), uint8(16), uint8(15), uint8(31), uint8(7))

	f.Fuzz(func(t *testing.T, seed, count, pick, flipByte, flipBit uint8) {
		n := int(count%16) + 1
		txs := make([][]byte, n)
		for i := range txs {
			txs[i] = []byte{seed, byte(i), byte(i * 5)}
		}
		root := MerkleRoot(txs)
		idx := int(pick) % n
		proof, err := BuildMerkleProof(txs, idx)
		if err != nil {
			t.Fatal(err)
		}
		if !VerifyMerkleProof(root, txs[idx], proof) {
			t.Fatal("valid proof rejected")
		}

		// A different transaction under the same proof must fail.
		if VerifyMerkleProof(root, append([]byte{0xfe}, txs[idx]...), proof) {
			t.Fatal("forged transaction verified")
		}

		// Flipping one bit anywhere in the path must fail: the sibling
		// hashes are inputs to the root computation at every level.
		if len(proof.Path) > 0 {
			mutated := MerkleProof{Index: proof.Index, Path: make([]Hash, len(proof.Path))}
			copy(mutated.Path, proof.Path)
			elem := int(flipByte) % len(mutated.Path)
			mutated.Path[elem][int(flipBit)%HashSize] ^= 1 << (flipBit % 8)
			if VerifyMerkleProof(root, txs[idx], mutated) {
				t.Fatalf("proof with mutated path element %d verified", elem)
			}
		}

		// A proof against the wrong root must fail.
		wrongRoot := root
		wrongRoot[0] ^= 0x80
		if VerifyMerkleProof(wrongRoot, txs[idx], proof) {
			t.Fatal("proof verified against a different root")
		}
	})
}

// FuzzBlockRecordRoundTrip: the block-log payload codec must round-trip
// what it wrote and never crash on damaged input — the file store feeds
// it raw disk bytes after a crash.
func FuzzBlockRecordRoundTrip(f *testing.F) {
	b := Block{Header: Header{Version: 1, Bits: 0x1d00ffff}, Txs: [][]byte{[]byte("tx"), {}}}
	f.Add(MarshalBlock(b))
	f.Add([]byte{})
	f.Add(make([]byte, HeaderSize+4))

	f.Fuzz(func(t *testing.T, data []byte) {
		blk, err := UnmarshalBlock(data)
		if err != nil {
			return // rejection is fine; not crashing is the test
		}
		re := MarshalBlock(blk)
		if !bytes.Equal(re, data) {
			t.Fatalf("accepted record did not round-trip:\n in  %x\n out %x", data, re)
		}
	})
}

// FuzzBatchVsSerial: AddBlocksFrom must agree with AddBlockFrom called
// block by block (stopping at the first invalid block, as the p2p
// handler did) on any delivery of a short block tree — permuted,
// thinned, repeated and with corrupted bits, time, merkle root or nonce
// — delivered in chunks: the same results, the same tip, the same
// orphans. Each op is two bytes: a kind and an argument.
func FuzzBatchVsSerial(f *testing.F) {
	c := newEasyChain(f)
	main := grow(f, c, c.GenesisID(), 12, 'm')
	fork := grow(f, c, main[5].Header.PrevHash, 9, 'f')
	tree := append(append([]Block{}, main...), fork...)

	f.Add(uint8(16), []byte{})
	f.Add(uint8(4), []byte{0, 3, 1, 7, 2, 9})
	f.Add(uint8(1), []byte{3, 2, 4, 0, 5, 6, 6, 11, 7, 1})
	f.Add(uint8(7), []byte{0, 0, 8, 14, 3, 5, 2, 2})

	f.Fuzz(func(t *testing.T, chunk uint8, ops []byte) {
		seq := append([]Block{}, tree...)
		for i := 0; i+1 < len(ops) && len(seq) > 0; i += 2 {
			arg := int(ops[i+1])
			j := arg % len(seq)
			b := seq[j]
			switch ops[i] % 8 {
			case 0: // swap with the block after
				k := (j + 1) % len(seq)
				seq[j], seq[k] = seq[k], seq[j]
			case 1: // drop
				seq = append(seq[:j], seq[j+1:]...)
			case 2: // deliver again later
				seq = append(seq, b)
			case 3:
				b.Header.Bits ^= 1 << (arg % 32)
				seq[j] = b
			case 4:
				b.Header.Time += uint64(arg%3) - 1
				seq[j] = b
			case 5:
				b.Header.MerkleRoot[arg%HashSize] ^= 1
				seq[j] = b
			case 6:
				b.Header.Nonce ^= uint64(arg) + 1
				seq[j] = b
			case 7: // move to the front
				seq = append([]Block{b}, append(seq[:j:j], seq[j+1:]...)...)
			}
		}
		batch := newTestNodeWith(t, easyParams())
		serial := newTestNodeWith(t, easyParams())
		size := int(chunk%16) + 1
		for i := 0; i < len(seq); i += size {
			part := seq[i:min(i+size, len(seq))]
			sameResults(t, batch.AddBlocksFrom(part, "peer"), addSerial(serial, part, "peer"))
		}
		sameState(t, batch, serial)
	})
}
