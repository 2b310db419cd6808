package main

import (
	"context"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"time"

	"hashcore"
	"hashcore/internal/baseline"
	"hashcore/internal/blockchain"
	"hashcore/internal/p2p"
	"hashcore/internal/pow"
)

// SyncStoreBench is one receiving-store configuration's numbers in the
// sync benchmark.
type SyncStoreBench struct {
	// Store names the syncing node's store: "mem", "file" (fsync per
	// append) or "file-batched" (group commit).
	Store string `json:"store"`
	// BlocksPerS is cold-sync throughput: blocks fetched over real TCP,
	// fully validated and persisted, per second.
	BlocksPerS float64 `json:"blocks_per_sec"`
	// Seconds is the wall-clock duration of the cold sync.
	Seconds float64 `json:"seconds"`
}

// SyncScaling is cold-sync throughput at one GOMAXPROCS.
type SyncScaling struct {
	GOMAXPROCS int     `json:"gomaxprocs"`
	BlocksPerS float64 `json:"blocks_per_sec"`
}

// SyncHashCoreBench is the cold sync of a HashCore-PoW chain into a
// FileStore that fsyncs every append, where each block's PoW re-hash is
// a full widget execution. Scaling runs it at GOMAXPROCS 1 and at
// nproc, so the record shows what hashing a batch's headers on every
// core buys.
type SyncHashCoreBench struct {
	Hasher  string        `json:"hasher"`
	Blocks  int           `json:"blocks"`
	Scaling []SyncScaling `json:"scaling"`
}

// HostStamp names the machine a report's numbers were measured on.
type HostStamp struct {
	CPUModel  string `json:"cpu_model"`
	NProc     int    `json:"nproc"`
	GoVersion string `json:"go_version"`
}

// SyncBenchReport is the machine-readable record of one sync benchmark
// run (BENCH_sync.json).
type SyncBenchReport struct {
	Hasher    string `json:"hasher"`
	Blocks    int    `json:"blocks"`
	GoVersion string `json:"go_version"`
	GOARCH    string `json:"goarch"`
	Timestamp string `json:"timestamp"`
	// Backend is the widget execution engine hashcore resolves to on the
	// recording host: the engine the HashCore rows ran on (the store rows
	// sync sha256d blocks).
	Backend  string            `json:"backend"`
	Host     HostStamp         `json:"host"`
	Stores   []SyncStoreBench  `json:"stores"`
	HashCore SyncHashCoreBench `json:"hashcore"`
}

// premineLinear mines a linear n-block chain under params and h, off-line
// of any timing.
func premineLinear(params blockchain.Params, h pow.Hasher, n int) ([]blockchain.Block, error) {
	c, err := blockchain.NewChain(params, h)
	if err != nil {
		return nil, err
	}
	miner := pow.NewMiner(h, runtime.GOMAXPROCS(0))
	blocks := make([]blockchain.Block, 0, n)
	parent := c.GenesisID()
	tm := params.GenesisTime
	for i := 0; i < n; i++ {
		tm += params.TargetSpacing
		bits, err := c.NextBits(parent)
		if err != nil {
			return nil, err
		}
		txs := [][]byte{{'s', byte(i), byte(i >> 8)}}
		h := blockchain.Header{
			Version:    1,
			PrevHash:   parent,
			MerkleRoot: blockchain.MerkleRoot(txs),
			Time:       tm,
			Bits:       bits,
		}
		target, err := pow.CompactToTarget(bits)
		if err != nil {
			return nil, err
		}
		res, err := miner.Mine(context.Background(), h.MiningPrefix(), target, 0, 0)
		if err != nil {
			return nil, err
		}
		h.Nonce = res.Nonce
		b := blockchain.Block{Header: h, Txs: txs}
		if parent, err = c.AddBlock(b); err != nil {
			return nil, err
		}
		blocks = append(blocks, b)
	}
	return blocks, nil
}

func quiet(string, ...any) {}

func closeManager(m *p2p.Manager) error {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	return m.Close(ctx)
}

// syncSource is an in-memory node holding a premined chain, serving it
// over TCP.
type syncSource struct {
	node *blockchain.Node
	mgr  *p2p.Manager
}

func serveChain(params blockchain.Params, h pow.Hasher, blocks []blockchain.Block) (*syncSource, error) {
	node, err := blockchain.OpenNode(blockchain.NodeConfig{Params: params, Hasher: h})
	if err != nil {
		return nil, err
	}
	for _, b := range blocks {
		if _, err := node.AddBlock(b); err != nil {
			node.Close()
			return nil, fmt.Errorf("sync bench premine: %w", err)
		}
	}
	mgr, err := p2p.New(p2p.Config{Node: node, ListenAddr: "127.0.0.1:0", Logf: quiet})
	if err == nil {
		err = mgr.Start()
	}
	if err != nil {
		node.Close()
		return nil, err
	}
	return &syncSource{node: node, mgr: mgr}, nil
}

func (s *syncSource) close() {
	closeManager(s.mgr)
	s.node.Close()
}

// coldSync opens a fresh node on store, connects it to src and returns
// how long it took to reach src's tip.
func (s *syncSource) coldSync(params blockchain.Params, h pow.Hasher, store blockchain.Store) (time.Duration, error) {
	node, err := blockchain.OpenNode(blockchain.NodeConfig{Params: params, Hasher: h, Store: store})
	if err != nil {
		return 0, err
	}
	defer node.Close()
	mgr, err := p2p.New(p2p.Config{Node: node, Logf: quiet})
	if err == nil {
		err = mgr.Start()
	}
	if err != nil {
		return 0, err
	}
	start := time.Now()
	mgr.Connect(s.mgr.Addr())
	deadline := start.Add(120 * time.Second)
	for node.TipID() != s.node.TipID() {
		if time.Now().After(deadline) {
			closeManager(mgr)
			return 0, fmt.Errorf("no convergence within deadline (height %d/%d)", node.Height(), s.node.Height())
		}
		time.Sleep(time.Millisecond)
	}
	elapsed := time.Since(start)
	return elapsed, closeManager(mgr)
}

// runSyncBench measures header-first cold sync over real TCP: a source
// node holds an n-block chain, a fresh node connects and must converge.
// A sha256d chain is synced once per receiving-store configuration; a
// HashCore chain (one leading zero bit, so mining it is cheap while
// every re-hash is a full widget execution) is synced into an
// fsync-per-append FileStore at GOMAXPROCS 1 and at nproc. Writes
// BENCH_sync.json.
func runSyncBench(n int, outPath string) error {
	if n < 16 {
		n = 16
	}
	tmpDir, err := os.MkdirTemp("", "hcbench-sync-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(tmpDir)

	rep := SyncBenchReport{
		Hasher:    "sha256d",
		Backend:   resolvedBackendName(),
		Blocks:    n,
		GoVersion: runtime.Version(),
		GOARCH:    runtime.GOARCH,
		Timestamp: time.Now().UTC().Format(time.RFC3339),
		Host:      HostStamp{CPUModel: cpuModel(), NProc: runtime.NumCPU(), GoVersion: runtime.Version()},
	}

	params := blockchain.DefaultParams()
	blocks, err := premineLinear(params, baseline.SHA256d{}, n)
	if err != nil {
		return err
	}
	src, err := serveChain(params, baseline.SHA256d{}, blocks)
	if err != nil {
		return err
	}
	for _, kind := range []string{"mem", "file", "file-batched"} {
		var store blockchain.Store
		switch kind {
		case "mem":
			store = blockchain.NewMemStore()
		case "file":
			store, err = blockchain.OpenFileStore(filepath.Join(tmpDir, "blocks-"+kind+".log"))
		case "file-batched":
			store, err = blockchain.OpenFileStoreWith(filepath.Join(tmpDir, "blocks-"+kind+".log"),
				blockchain.FileStoreOptions{BatchAppends: 64})
		}
		if err != nil {
			src.close()
			return err
		}
		elapsed, err := src.coldSync(params, baseline.SHA256d{}, store)
		if err != nil {
			src.close()
			return fmt.Errorf("sync bench (%s): %w", kind, err)
		}
		sb := SyncStoreBench{
			Store:      kind,
			BlocksPerS: float64(n) / elapsed.Seconds(),
			Seconds:    elapsed.Seconds(),
		}
		rep.Stores = append(rep.Stores, sb)
		fmt.Printf("%-14s %8.0f blocks/s  (%d blocks in %.3fs over TCP)\n", kind, sb.BlocksPerS, n, sb.Seconds)
	}
	src.close()

	if rep.HashCore, err = runHashCoreSync(n, tmpDir); err != nil {
		return err
	}

	data, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(outPath, append(data, '\n'), 0o644); err != nil {
		return err
	}
	fmt.Printf("wrote %s\n\n", outPath)
	return nil
}

// runHashCoreSync is the HashCore half of the sync benchmark.
func runHashCoreSync(n int, tmpDir string) (SyncHashCoreBench, error) {
	out := SyncHashCoreBench{Blocks: n}
	h, err := hashcore.New()
	if err != nil {
		return out, err
	}
	out.Hasher = h.Name()
	params := blockchain.DefaultParams()
	params.GenesisBits = pow.TargetToCompact(pow.Target(hashcore.TargetWithZeroBits(1)))
	blocks, err := premineLinear(params, h, n)
	if err != nil {
		return out, err
	}
	src, err := serveChain(params, h, blocks)
	if err != nil {
		return out, err
	}
	defer src.close()
	procs := []int{1}
	if nproc := runtime.NumCPU(); nproc > 1 {
		procs = append(procs, nproc)
	}
	for _, p := range procs {
		store, err := blockchain.OpenFileStore(filepath.Join(tmpDir, fmt.Sprintf("hashcore-%d.log", p)))
		if err != nil {
			return out, err
		}
		prev := runtime.GOMAXPROCS(p)
		elapsed, err := src.coldSync(params, h, store)
		runtime.GOMAXPROCS(prev)
		if err != nil {
			return out, fmt.Errorf("sync bench (hashcore, GOMAXPROCS %d): %w", p, err)
		}
		sc := SyncScaling{GOMAXPROCS: p, BlocksPerS: float64(n) / elapsed.Seconds()}
		out.Scaling = append(out.Scaling, sc)
		fmt.Printf("hashcore file  %8.0f blocks/s  (%d blocks in %.3fs over TCP, GOMAXPROCS %d)\n",
			sc.BlocksPerS, n, elapsed.Seconds(), p)
	}
	return out, nil
}

// cpuModel reads the processor name, or "unknown" where /proc is absent.
func cpuModel() string {
	data, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(data), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}
