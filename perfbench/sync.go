package main

import (
	"context"
	"encoding/binary"
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"sync"
	"time"

	"hashcore"
	"hashcore/internal/blockchain"
	"hashcore/internal/p2p"
	"hashcore/internal/pow"
	"hashcore/internal/telemetry"
)

const (
	// syncBlocks is the source chain's length: one cold sync round
	// fetches, re-hashes and persists all of it.
	syncBlocks       = 400
	syncRoundTimeout = 30 * time.Second
)

// syncParams are the consensus rules of the benchmark chain: default
// spacing and retargeting, with a genesis target of one leading zero bit
// so building the chain costs about two hashes per block.
func syncParams() blockchain.Params {
	p := blockchain.DefaultParams()
	p.GenesisBits = pow.TargetToCompact(pow.Target(hashcore.TargetWithZeroBits(1)))
	return p
}

// buildChain mines the seed's chain into a group-committed FileStore at
// path and returns its blocks. It runs before anything is timed.
func buildChain(e *env, h *hashcore.Hasher, path string) ([]blockchain.Block, error) {
	params := syncParams()
	fs, err := blockchain.OpenFileStoreWith(path, blockchain.FileStoreOptions{BatchAppends: 256})
	if err != nil {
		return nil, err
	}
	node, err := blockchain.OpenNode(blockchain.NodeConfig{Params: params, Hasher: h, Store: fs})
	if err != nil {
		return nil, err
	}
	defer node.Close()
	sess := h.NewSession()
	defer sess.Close()
	r := e.rng("sync-chain")
	blocks := make([]blockchain.Block, 0, syncBlocks)
	parent, tm := node.GenesisID(), params.GenesisTime
	for i := 0; i < syncBlocks; i++ {
		tm += params.TargetSpacing
		bits, err := node.NextBits(parent)
		if err != nil {
			return nil, err
		}
		target, err := pow.CompactToTarget(bits)
		if err != nil {
			return nil, err
		}
		txs := make([][]byte, 1+r.IntN(3))
		for j := range txs {
			txs[j] = make([]byte, 64+r.IntN(256))
			for k := 0; k+8 <= len(txs[j]); k += 8 {
				binary.LittleEndian.PutUint64(txs[j][k:], r.Uint64())
			}
		}
		hd := blockchain.Header{Version: 1, PrevHash: parent, MerkleRoot: blockchain.MerkleRoot(txs), Time: tm, Bits: bits}
		in := hd.MiningPrefix()
		for hd.Nonce = r.Uint64(); ; hd.Nonce++ {
			d, err := sess.Hash(binary.LittleEndian.AppendUint64(in, hd.Nonce))
			if err != nil {
				return nil, err
			}
			if pow.Check(d, target) {
				break
			}
		}
		b := blockchain.Block{Header: hd, Txs: txs}
		if parent, err = node.AddBlock(b); err != nil {
			return nil, fmt.Errorf("building block %d: %w", i, err)
		}
		blocks = append(blocks, b)
	}
	return blocks, node.Close()
}

// stampedStore wraps the receiver's FileStore: it stamps the completion
// of every append and, when timed, adds each append's duration (fsync
// included).
type stampedStore struct {
	inner *blockchain.FileStore
	timed bool

	mu       sync.Mutex
	stamps   []time.Time
	appendNs int64
}

func (s *stampedStore) Load(fn func(blockchain.Block) error) error { return s.inner.Load(fn) }

// BlockAt keeps the wrapper a blockchain.BlockReader, so the node indexes
// bodies on disk as it does over a bare FileStore.
func (s *stampedStore) BlockAt(i int) (blockchain.Block, error) { return s.inner.BlockAt(i) }
func (s *stampedStore) Close() error                            { return s.inner.Close() }

func (s *stampedStore) Append(b blockchain.Block) error {
	start := time.Now()
	err := s.inner.Append(b)
	end := time.Now()
	s.mu.Lock()
	s.stamps = append(s.stamps, end)
	if s.timed {
		s.appendNs += int64(end.Sub(start))
	}
	s.mu.Unlock()
	return err
}

// syncRig is one sync set-up: the source node restarted from its log and
// serving, and a fresh receiver ready to dial it.
type syncRig struct {
	h        *hashcore.Hasher
	src      *blockchain.Node
	srcMgr   *p2p.Manager
	recv     *receiver
	replay   time.Duration
	dir      string
	receives int
}

// receiver is a fresh node on its own FileStore, fsync per append.
type receiver struct {
	node  *blockchain.Node
	mgr   *p2p.Manager
	store *stampedStore
	path  string
	reg   *telemetry.Registry
}

func quietLog(string, ...any) {}

func closeManager(m *p2p.Manager) error {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	return m.Close(ctx)
}

// newReceiver opens a fresh receiving node. With trace set, its hashes
// go through rec, its appends are timed and its p2p layer reports to a
// private registry.
func (s *syncRig) newReceiver(rec *hashRecorder) (*receiver, error) {
	s.receives++
	path := filepath.Join(s.dir, "recv-"+strconv.Itoa(s.receives)+".log")
	fs, err := blockchain.OpenFileStore(path)
	if err != nil {
		return nil, err
	}
	r := &receiver{store: &stampedStore{inner: fs, timed: rec != nil}, path: path}
	cfg := blockchain.NodeConfig{Params: syncParams(), Hasher: s.h, Store: r.store}
	if rec != nil {
		cfg.Hasher = timedSession{inner: s.h, rec: rec}
		r.reg = telemetry.NewRegistry()
	}
	if r.node, err = blockchain.OpenNode(cfg); err != nil {
		return nil, err
	}
	r.mgr, err = p2p.New(p2p.Config{Node: r.node, Logf: quietLog, Metrics: r.reg})
	if err == nil {
		err = r.mgr.Start()
	}
	if err != nil {
		r.node.Close()
		return nil, err
	}
	return r, nil
}

func (r *receiver) close() error {
	err := closeManager(r.mgr)
	if cerr := r.node.Close(); err == nil {
		err = cerr
	}
	return err
}

// setupSync restarts the source node from its log (replaying and
// re-validating every block), starts its p2p manager and a receiver's.
func setupSync(e *env, srcPath string) (*syncRig, error) {
	h, err := hashcore.New()
	if err != nil {
		return nil, err
	}
	s := &syncRig{h: h, dir: e.workdir}
	start := time.Now()
	fs, err := blockchain.OpenFileStore(srcPath)
	if err != nil {
		return nil, err
	}
	if s.src, err = blockchain.OpenNode(blockchain.NodeConfig{Params: syncParams(), Hasher: h, Store: fs}); err != nil {
		return nil, err
	}
	s.replay = time.Since(start)
	if s.src.Replayed() != syncBlocks {
		s.src.Close()
		return nil, fmt.Errorf("source replayed %d blocks, want %d", s.src.Replayed(), syncBlocks)
	}
	s.srcMgr, err = p2p.New(p2p.Config{Node: s.src, ListenAddr: "127.0.0.1:0", Logf: quietLog})
	if err == nil {
		err = s.srcMgr.Start()
	}
	if err != nil {
		s.src.Close()
		return nil, err
	}
	if s.recv, err = s.newReceiver(nil); err != nil {
		s.close()
		return nil, err
	}
	return s, nil
}

func (s *syncRig) close() {
	if s.recv != nil {
		_ = s.recv.close() // teardown after the checks
		os.Remove(s.recv.path)
	}
	_ = closeManager(s.srcMgr) // teardown after the checks
	s.src.Close()
}

// syncWindow is the outcome of a series of cold sync rounds.
type syncWindow struct {
	tally
	blocks    int
	syncTime  time.Duration // summed over rounds, Connect to last append
	intervals []int64       // per block: time since the previous append (or Connect)
	rounds    int
	last      *receiver // the final round's receiver, closed, log kept
}

// measure runs cold sync rounds until the window is spent. Each round a
// fresh receiver dials the source and must reach its tip; only the span
// from the dial to the last append is timed.
func (s *syncRig) measure(e *env, window time.Duration, rec *hashRecorder, each func(*receiver)) (*syncWindow, error) {
	w := &syncWindow{}
	tip, height := s.src.TipID(), s.src.Height()
	deadline := time.Now().Add(window)
	for time.Now().Before(deadline) {
		r := s.recv
		s.recv = nil
		if r == nil {
			var err error
			if r, err = s.newReceiver(rec); err != nil {
				return nil, err
			}
		}
		start := time.Now()
		r.mgr.Connect(s.srcMgr.Addr())
		for r.node.TipID() != tip && time.Since(start) < syncRoundTimeout {
			time.Sleep(time.Millisecond)
		}
		converged := r.node.TipID() == tip && r.node.Height() == height
		if err := r.close(); err != nil {
			return nil, err
		}
		w.rounds++
		w.attempted += syncBlocks
		if !converged {
			w.failed += syncBlocks
			e.logf("sync: round %d reached height %d, want %d at tip %x", w.rounds, r.node.Height(), height, tip[:8])
		} else {
			prev := start
			for _, t := range r.store.stamps {
				w.intervals = append(w.intervals, int64(t.Sub(prev)))
				prev = t
			}
			w.blocks += len(r.store.stamps)
			w.syncTime += prev.Sub(start)
		}
		if each != nil {
			each(r)
		}
		if w.last != nil {
			os.Remove(w.last.path)
		}
		w.last = r
	}
	return w, nil
}

// checkReopen restarts the last receiver from its log, which must
// replay to the source's tip.
func (s *syncRig) checkReopen(e *env, r *receiver) tally {
	t := tally{attempted: 1}
	defer os.Remove(r.path)
	fs, err := blockchain.OpenFileStore(r.path)
	if err == nil {
		var n *blockchain.Node
		if n, err = blockchain.OpenNode(blockchain.NodeConfig{Params: syncParams(), Hasher: s.h, Store: fs}); err == nil {
			if n.TipID() != s.src.TipID() || n.Height() != s.src.Height() {
				err = fmt.Errorf("reopened at height %d tip %x", n.Height(), n.TipID())
			}
			n.Close()
		}
	}
	if err != nil {
		t.failed = 1
		e.logf("sync: reopening the receiver's log: %v", err)
	}
	return t
}

// prepareSync builds the seed's source chain in the run's work directory.
func prepareSync(e *env) (string, []blockchain.Block, error) {
	h, err := hashcore.New()
	if err != nil {
		return "", nil, err
	}
	srcPath := filepath.Join(e.workdir, "source.log")
	blocks, err := buildChain(e, h, srcPath)
	return srcPath, blocks, err
}

func runSync(e *env, window time.Duration) (endToEnd, error) {
	srcPath, _, err := prepareSync(e)
	if err != nil {
		return endToEnd{}, err
	}
	s, setup, err := setupRepeated(func() (*syncRig, error) { return setupSync(e, srcPath) }, (*syncRig).close)
	if err != nil {
		return endToEnd{}, err
	}
	defer s.close()
	w, err := s.measure(e, window, nil, nil)
	if err != nil {
		return endToEnd{}, err
	}
	w.add(s.checkReopen(e, w.last))
	r := endToEnd{
		tally:   w.tally,
		setup:   setup,
		opsPerS: float64(w.blocks) / w.syncTime.Seconds(),
		p50:     time.Duration(percentile(w.intervals, 50)),
		p90:     time.Duration(percentile(w.intervals, 90)),
	}
	e.logf("sync: %d rounds of %d blocks, %.1f blocks/s, per-block p50 %.3f ms, p90 %.3f ms, setup %.4fs (replay %.4fs)",
		w.rounds, syncBlocks, r.opsPerS, ms(float64(r.p50)), ms(float64(r.p90)), setup.Seconds(), s.replay.Seconds())
	return r, nil
}

// traceSync runs untraced rounds for half the window, then rounds whose
// receiver times its PoW re-hashes and appends and counts its p2p
// traffic; decode and validation are timed over the same blocks after.
func traceSync(e *env, window time.Duration) (map[string]metric, tally, error) {
	srcPath, blocks, err := prepareSync(e)
	if err != nil {
		return nil, tally{}, err
	}
	s, err := setupSync(e, srcPath)
	if err != nil {
		return nil, tally{}, err
	}
	defer s.close()
	half := window / 2
	u, err := s.measure(e, half, nil, nil)
	if err != nil {
		return nil, tally{}, err
	}
	os.Remove(u.last.path)
	untraced := float64(u.syncTime) / float64(u.blocks)

	rec := &hashRecorder{}
	rec.on.Store(true)
	var appendNs int64
	var msgs, bytes float64
	w, err := s.measure(e, half, rec, func(r *receiver) {
		appendNs += r.store.appendNs
		m, _ := r.reg.Value("p2p_messages_total")
		b, _ := r.reg.Value("p2p_net_bytes_total")
		msgs += m
		bytes += b
	})
	if err != nil {
		return nil, tally{}, err
	}
	t := u.tally
	t.add(w.tally)
	t.add(s.checkReopen(e, w.last))
	spans := rec.take()
	var rehashNs int64
	for _, sp := range spans {
		rehashNs += int64(sp.end.Sub(sp.start))
	}
	n := float64(w.blocks)

	decode, err := decodeCost(blocks)
	if err != nil {
		return nil, tally{}, err
	}
	validate, err := validateCost(s.h, blocks)
	if err != nil {
		return nil, tally{}, err
	}
	rehash := float64(rehashNs) / n
	appendPer := float64(appendNs) / n
	sum := decode + rehash + validate + appendPer
	m := map[string]metric{
		"pow.rehash_ns":                {rehash, "ns"},
		"pow.hashes_per_block":         {float64(len(spans)) / n, "count"},
		"blockchain.append_ns":         {appendPer, "ns"},
		"blockchain.decode_ns":         {decode, "ns"},
		"blockchain.validate_ns":       {validate, "ns"},
		"p2p.msgs_per_block":           {msgs / n, "count"},
		"p2p.bytes_per_block":          {bytes / n, "B"},
		"p2p.residual_ns":              {untraced - sum, "ns"},
		"blockchain.replay_ns":         {float64(s.replay) / syncBlocks, "ns"},
		"bench.sync_trace_overhead_ns": {float64(w.syncTime)/n - untraced, "ns"},
	}
	e.logf("sync traced: untraced %.0f ns/block = decode %.0f + rehash %.0f + validate %.0f + append %.0f + residual %.0f",
		untraced, decode, rehash, validate, appendPer, untraced-sum)
	return m, t, nil
}

// decodeCost times blockchain.UnmarshalBlock over the chain's encoded
// blocks, per block.
func decodeCost(blocks []blockchain.Block) (float64, error) {
	data := make([][]byte, len(blocks))
	for i, b := range blocks {
		data[i] = blockchain.MarshalBlock(b)
	}
	start := time.Now()
	for _, d := range data {
		if _, err := blockchain.UnmarshalBlock(d); err != nil {
			return 0, err
		}
	}
	return float64(time.Since(start)) / float64(len(blocks)), nil
}

// validateCost replays the chain into a fresh in-memory node and returns
// the per-block Node.AddBlock time minus its PoW re-hash.
func validateCost(h *hashcore.Hasher, blocks []blockchain.Block) (float64, error) {
	rec := &hashRecorder{}
	rec.on.Store(true)
	node, err := blockchain.OpenNode(blockchain.NodeConfig{Params: syncParams(), Hasher: timedSession{inner: h, rec: rec}})
	if err != nil {
		return 0, err
	}
	defer node.Close()
	start := time.Now()
	for _, b := range blocks {
		if _, err := node.AddBlock(b); err != nil {
			return 0, err
		}
	}
	total := time.Since(start)
	for _, sp := range rec.take() {
		total -= sp.end.Sub(sp.start)
	}
	return float64(total) / float64(len(blocks)), nil
}
