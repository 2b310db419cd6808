package p2p

import (
	"encoding/hex"
	"runtime"
	"sync/atomic"
	"testing"

	"hashcore/internal/baseline"
	"hashcore/internal/blockchain"
	"hashcore/internal/pow"
	"hashcore/internal/wire"
)

// countingHasher is sha256d that counts its calls.
type countingHasher struct{ calls atomic.Int64 }

func (h *countingHasher) Hash(header []byte) ([32]byte, error) {
	h.calls.Add(1)
	return baseline.SHA256d{}.Hash(header)
}

func (h *countingHasher) Name() string { return "sha256d" }

// TestInvalidBlockInBatchDropsPeer: a peer serving a body batch with an
// invalid block at index k gets the blocks before k connected, none
// from k on, and the session dropped with the invalid-block penalty —
// while the batch's parallel hashing spends at most GOMAXPROCS-1 hashes
// more than hashing block by block would.
func TestInvalidBlockInBatchDropsPeer(t *testing.T) {
	source := newNode(t)
	mineBlocks(t, source, 10, 'v')
	page := source.HeadersWithIDs(nil, 0)
	const k = 4
	bodies := make(map[string]string, len(page))
	for i, ah := range page {
		b, ok := source.BlockByHash(ah.ID)
		if !ok {
			t.Fatal("source lost a body")
		}
		if i == k { // a nonce whose digest misses the target
			target, err := pow.CompactToTarget(b.Header.Bits)
			if err != nil {
				t.Fatal(err)
			}
			for {
				b.Header.Nonce++
				if d, _ := (baseline.SHA256d{}).Hash(b.Header.Marshal()); !pow.Check(d, target) {
					break
				}
			}
		}
		bodies[hashToHex(ah.ID)] = hex.EncodeToString(blockchain.MarshalBlock(b))
	}

	h := &countingHasher{}
	node, err := blockchain.OpenNode(blockchain.NodeConfig{Params: blockchain.DefaultParams(), Hasher: h})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { node.Close() })
	h.calls.Store(0)
	m := hardenedManager(t, Config{Node: node, BlocksPerBatch: MaxBlocksPerMsg})

	wp, err := rawClient(t, m)
	if err != nil {
		t.Fatal(err)
	}
	go wp.Run(func(env wire.Envelope) error {
		switch env.Type {
		case TypeGetHeaders:
			reply := HeadersMsg{}
			for _, ah := range page {
				reply.Headers = append(reply.Headers, HeaderRef{ID: hashToHex(ah.ID), Header: hex.EncodeToString(ah.Header.Marshal())})
			}
			return wp.Send(TypeHeaders, reply)
		case TypeGetBlocks:
			var msg GetBlocksMsg
			if err := env.Decode(&msg); err != nil {
				return err
			}
			reply := BlocksMsg{}
			for _, id := range msg.Hashes {
				reply.Blocks = append(reply.Blocks, bodies[id])
			}
			return wp.Send(TypeBlocks, reply)
		}
		return nil
	})
	if err := wp.Send(TypeInv, InvMsg{Tip: hashToHex(page[len(page)-1].ID), Height: len(page)}); err != nil {
		t.Fatal(err)
	}
	// One invalid block is worth a ban on its own.
	waitFor(t, "peer serving an invalid block banned", func() bool { return m.Banned("127.0.0.1") })
	waitFor(t, "session closed", func() bool { return m.PeerCount() == 0 })
	for i, ah := range page {
		if node.HasBlock(ah.ID) != (i < k) {
			t.Fatalf("block %d connected = %v, want %v", i, !(i < k), i < k)
		}
	}
	if node.Height() != k || node.OrphanCount() != 0 {
		t.Fatalf("height %d with %d orphans, want %d and none", node.Height(), node.OrphanCount(), k)
	}
	if got, bound := h.calls.Load(), int64(k+1+runtime.GOMAXPROCS(0)-1); got > bound {
		t.Fatalf("%d hashes, want at most %d (%d block by block)", got, bound, k+1)
	}
}
