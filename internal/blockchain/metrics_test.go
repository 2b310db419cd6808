package blockchain

import (
	"path/filepath"
	"testing"

	"hashcore/internal/baseline"
	"hashcore/internal/telemetry"
)

func newMeteredNode(t *testing.T) (*Node, *telemetry.Registry, *telemetry.Journal) {
	t.Helper()
	reg := telemetry.NewRegistry()
	j := telemetry.NewJournal(64)
	n, err := OpenNode(NodeConfig{
		Params:  DefaultParams(),
		Hasher:  baseline.SHA256d{},
		Metrics: reg,
		Journal: j,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { n.Close() })
	return n, reg, j
}

func TestNodeMetricsAndJournal(t *testing.T) {
	n, reg, j := newMeteredNode(t)
	tm := DefaultParams().GenesisTime

	// Linear growth: accepted counter, tip-height gauge, tip events.
	parent := n.GenesisID()
	for i := 0; i < 3; i++ {
		tm += 30
		b := mineOn(t, n, parent, tm, [][]byte{{byte(i)}})
		id, err := n.AddBlock(b)
		if err != nil {
			t.Fatal(err)
		}
		parent = id
	}
	if got, _ := reg.Value("chain_blocks_accepted_total"); got != 3 {
		t.Fatalf("accepted = %v", got)
	}
	if got, _ := reg.Value("chain_tip_height"); got != 3 {
		t.Fatalf("tip height gauge = %v", got)
	}
	if got, _ := reg.Value("chain_total_work"); got <= 0 {
		t.Fatalf("total work gauge = %v", got)
	}
	if got, _ := reg.Value("chain_reorgs_total"); got != 0 {
		t.Fatalf("reorgs before fork = %v", got)
	}
	tips := 0
	for _, ev := range j.Events(0) {
		if ev.Type == "tip" {
			tips++
		}
	}
	if tips != 3 {
		t.Fatalf("tip events = %d", tips)
	}

	// Build a heavier side branch from height 1 (the tip is at height
	// 3, the fork abandons 2 blocks) and assert the reorg instruments.
	fork := ancestorAt(n.chain.tip, 1).id
	side := fork
	sideTm := tm + 1000
	for i := 0; i < 3; i++ {
		sideTm += 30
		b := mineOn(t, n, side, sideTm, [][]byte{{0xF0, byte(i)}})
		id, err := n.AddBlock(b)
		if err != nil {
			t.Fatal(err)
		}
		side = id
	}
	if n.TipID() != side {
		t.Fatal("side branch did not win")
	}
	if got, _ := reg.Value("chain_reorgs_total"); got != 1 {
		t.Fatalf("reorgs = %v", got)
	}
	var reorgDepthSeen int
	for _, ev := range j.Events(0) {
		if ev.Type == "reorg" {
			reorgDepthSeen = ev.Fields["depth"].(int)
		}
	}
	if reorgDepthSeen != 2 {
		t.Fatalf("reorg depth = %d, want 2", reorgDepthSeen)
	}
	if n.Err() != nil {
		t.Fatalf("healthy node reports %v", n.Err())
	}
}

func TestReorgDepthHelper(t *testing.T) {
	n, _, _ := newMeteredNode(t)
	tm := DefaultParams().GenesisTime
	parent := n.GenesisID()
	for i := 0; i < 4; i++ {
		tm += 30
		b := mineOn(t, n, parent, tm, [][]byte{{byte(i)}})
		id, err := n.AddBlock(b)
		if err != nil {
			t.Fatal(err)
		}
		parent = id
	}
	tip := n.chain.tip
	// Same branch: no abandonment.
	if d := reorgDepth(ancestorAt(tip, 2), tip); d != 0 {
		t.Fatalf("ancestor depth = %d", d)
	}
	if d := reorgDepth(tip, tip); d != 0 {
		t.Fatalf("self depth = %d", d)
	}
}

func TestFileStoreMetrics(t *testing.T) {
	reg := telemetry.NewRegistry()
	fs, err := OpenFileStoreWith(filepath.Join(t.TempDir(), "blocks.log"), FileStoreOptions{
		BatchAppends: 4,
		BatchDelay:   DefaultBatchDelay,
		Metrics:      reg,
	})
	if err != nil {
		t.Fatal(err)
	}
	n, err := OpenNode(NodeConfig{Params: DefaultParams(), Hasher: baseline.SHA256d{}, Store: fs})
	if err != nil {
		t.Fatal(err)
	}
	defer n.Close()

	// Mine first, so the four appends land well inside one BatchDelay
	// even on a loaded machine.
	scratch := newTestChain(t)
	tm := DefaultParams().GenesisTime
	parent := scratch.GenesisID()
	var blocks []Block
	for i := 0; i < 4; i++ {
		tm += 30
		b := mineOn(t, scratch, parent, tm, [][]byte{{byte(i)}})
		id, err := scratch.AddBlock(b)
		if err != nil {
			t.Fatal(err)
		}
		blocks = append(blocks, b)
		parent = id
	}
	for _, b := range blocks {
		if _, err := n.AddBlock(b); err != nil {
			t.Fatal(err)
		}
	}
	if got, _ := reg.Value("chain_store_append_seconds"); got != 4 {
		t.Fatalf("append observations = %v", got)
	}
	// Four appends at BatchAppends=4 is exactly one group commit.
	if got, _ := reg.Value("chain_store_fsync_seconds"); got != 1 {
		t.Fatalf("fsync observations = %v", got)
	}
	if got, _ := reg.Value("chain_store_commit_batch_size"); got != 1 {
		t.Fatalf("batch observations = %v", got)
	}
}
