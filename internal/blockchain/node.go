package blockchain

import (
	"errors"
	"fmt"
	"math/big"
	"sync"

	"hashcore/internal/pow"
	"hashcore/internal/telemetry"
)

// NodeConfig parameterizes OpenNode. Zero values select the documented
// defaults.
type NodeConfig struct {
	// Params fixes the consensus rules. Required (use DefaultParams()).
	Params Params
	// Hasher is the PoW function blocks are validated with. Required.
	Hasher pow.Hasher
	// Store persists accepted blocks. Nil selects a fresh MemStore
	// (no persistence).
	Store Store
	// MaxOrphans bounds the orphan pool. Default 64.
	MaxOrphans int
	// MaxOrphansPerPeer bounds how many parked orphans one delivering
	// peer (the origin passed to AddBlockFrom) may hold at once, so a
	// single peer spraying fabricated orphans can only ever evict its
	// own. Default MaxOrphans/4 (min 1).
	MaxOrphansPerPeer int
	// Metrics, when non-nil, registers the chain_* instrument family:
	// tip height/total-work/orphan gauges, accept and reorg counters,
	// and the reorg-depth histogram. Replayed blocks do not count.
	Metrics *telemetry.Registry
	// Journal, when non-nil, receives the node's structured events:
	// tip moves, reorgs (with depth) and store halts.
	Journal *telemetry.Journal
}

// DefaultMaxOrphans is the orphan-pool bound when NodeConfig leaves it
// zero.
const DefaultMaxOrphans = 64

// MaxHeadersPerRequest caps one Headers response, as in Bitcoin's
// getheaders.
const MaxHeadersPerRequest = 2000

// MaxBlocksPerRequest caps one Blocks response, bounding the memory a
// single sync request can pin.
const MaxBlocksPerRequest = 128

// Node is the concurrency-safe consensus layer: a validated block tree
// (Chain) behind an RWMutex, persisted through a Store, with a bounded
// orphan pool for out-of-order arrivals and a tip-change event feed for
// reactive consumers (the mining pool above all). All methods are safe
// for concurrent use.
type Node struct {
	mu      sync.RWMutex
	chain   *Chain
	store   Store
	orphans *orphanPool
	feed    *tipFeed

	// Block-body access for serving peers: every persisted block is
	// indexed by identity. With a random-access store (BlockReader) the
	// index maps to append positions and bodies are re-read on demand;
	// otherwise bodies stay in memory.
	index    map[Hash]int
	reader   BlockReader
	bodies   map[Hash]Block
	appended int // records in the store = replayed + successful appends

	replaying bool // true only inside OpenNode's store replay
	replayed  int
	met       *nodeMetrics       // nil when telemetry is disabled
	journal   *telemetry.Journal // nil-safe; events for the debug plane
	// storeErr latches the first Append failure. Once the log has
	// missed a block, persisting that block's descendants would leave a
	// permanently unreplayable gap (restart would hit ErrUnknownParent
	// mid-log), so all further block acceptance halts with this error;
	// reads keep working.
	storeErr  error
	closeOnce sync.Once
}

// OpenNode creates the chain, replays the store through full validation
// (so a tampered or reordered log cannot produce an invalid tip), and
// returns a ready node. After a clean replay the node's tip, height and
// total work are exactly what they were when the store was last
// written.
func OpenNode(cfg NodeConfig) (*Node, error) {
	if cfg.Hasher == nil {
		return nil, errors.New("blockchain: node needs a hasher")
	}
	chain, err := NewChain(cfg.Params, cfg.Hasher)
	if err != nil {
		return nil, err
	}
	store := cfg.Store
	if store == nil {
		store = NewMemStore()
	}
	maxOrphans := cfg.MaxOrphans
	if maxOrphans < 1 {
		maxOrphans = DefaultMaxOrphans
	}
	n := &Node{
		chain:   chain,
		store:   store,
		orphans: newOrphanPool(maxOrphans, cfg.MaxOrphansPerPeer),
		feed:    newTipFeed(),
		index:   make(map[Hash]int),
	}
	if r, ok := store.(BlockReader); ok {
		n.reader = r
	} else {
		n.bodies = make(map[Hash]Block)
	}
	n.replaying = true
	err = n.replay(store)
	n.replaying = false
	if err != nil {
		store.Close()
		return nil, err
	}
	// Instruments come online only after replay, so the counters speak
	// about this process's work, not history (the gauges read live state
	// either way).
	n.met = registerNodeMetrics(cfg.Metrics, n)
	n.journal = cfg.Journal
	return n, nil
}

// replayChunk is how many logged blocks OpenNode validates per batch.
const replayChunk = 64

// replay feeds the store's log through full validation in chunks whose
// PoW digests are computed on every core ahead of the in-order commit.
// The log is replayed in order and stops at its first bad block, so the
// error (and the height it names) is the one a block-by-block replay
// returns. A chunk still pending when Load fails lies before the point
// of failure, so it is validated first and its error takes precedence.
func (n *Node) replay(store Store) error {
	chunk := make([]Block, 0, replayChunk)
	flush := func() error {
		bs := chunk
		chunk = chunk[:0]
		if len(bs) == 0 {
			return nil
		}
		var ph *prehash
		if _, ok := n.chain.nodes[bs[0].Header.PrevHash]; ok {
			ph = startPrehash(n.chain.hasher, bs)
			defer ph.close()
		}
		for i, b := range bs {
			id, err := n.chain.addBlock(b, ph.digest(i))
			if err != nil {
				return fmt.Errorf("blockchain: replaying block log at height %d: %w", n.chain.Height()+1, err)
			}
			n.recordBody(id, b)
			n.replayed++
		}
		return nil
	}
	err := store.Load(func(b Block) error {
		chunk = append(chunk, b)
		if len(chunk) < replayChunk {
			return nil
		}
		return flush()
	})
	if ferr := flush(); ferr != nil {
		return ferr
	}
	return err
}

// Err returns the latched store failure that halted block acceptance,
// or nil while the node is healthy — the daemon /healthz check.
func (n *Node) Err() error {
	n.mu.RLock()
	defer n.mu.RUnlock()
	return n.storeErr
}

// Close releases the backing store. The node must not be used after.
func (n *Node) Close() error {
	var err error
	n.closeOnce.Do(func() { err = n.store.Close() })
	return err
}

// Replayed returns how many blocks OpenNode recovered from the store.
func (n *Node) Replayed() int { return n.replayed }

// AddBlock validates and connects b, persists it, connects any orphans
// that were waiting on it, and publishes a TipEvent if the best block
// changed. A block whose parent is unknown is parked in the orphan pool
// and reported as ErrOrphan (which wraps ErrUnknownParent); it will be
// connected automatically when its parent arrives. Blocks exceeding the
// store's record bounds are rejected up front (ErrBlockTooLarge), and a
// store write failure halts all further acceptance (the in-memory tip
// stays readable) — both invariants exist so the block log is always an
// exact replayable prefix of the accepted chain.
func (n *Node) AddBlock(b Block) (Hash, error) {
	return n.AddBlockFrom(b, "")
}

// AddBlockFrom is AddBlock with delivery attribution: origin names the
// peer the block came from (empty for local submissions). Attribution
// only matters when the block parks as an orphan — the pool caps each
// origin's entries and evicts within the flooding origin first, so one
// peer's orphan spam cannot evict blocks another peer parked.
func (n *Node) AddBlockFrom(b Block, origin string) (Hash, error) {
	return n.addBlockFrom(b, origin, nil)
}

// addBlockFrom is AddBlockFrom with an optional precomputed PoW digest
// of b (see Chain.addBlock).
func (n *Node) addBlockFrom(b Block, origin string, pre *Hash) (Hash, error) {
	n.mu.Lock()
	defer n.mu.Unlock()
	if n.storeErr != nil {
		return Hash{}, n.storeErr
	}
	if err := storableBlockErr(b); err != nil {
		return Hash{}, err
	}
	oldTip := n.chain.tip

	id, err := n.chain.addBlock(b, pre)
	if err != nil {
		if errors.Is(err, ErrUnknownParent) {
			n.orphans.add(b, origin)
			return Hash{}, ErrOrphan
		}
		return Hash{}, err
	}
	perr := n.persist(b)
	if perr == nil {
		n.recordBody(id, b)
		n.connectOrphans(id)
	}

	// The tip may have moved even on the persist-failure path (the
	// block is connected in memory); subscribers must still hear it.
	if tip := n.chain.tip; tip != oldTip {
		reorg := ancestorAt(tip, oldTip.height) != oldTip
		if reorg {
			depth := reorgDepth(oldTip, tip)
			if n.met != nil {
				n.met.reorgs.Inc()
				n.met.reorgDepth.Observe(float64(depth))
			}
			n.journal.Emit("reorg", map[string]any{
				"height": tip.height,
				"depth":  depth,
				"tip":    fmt.Sprintf("%x", tip.id[:8]),
			})
		} else {
			n.journal.Emit("tip", map[string]any{
				"height": tip.height,
				"tip":    fmt.Sprintf("%x", tip.id[:8]),
			})
		}
		n.feed.publish(TipEvent{
			OldTip: oldTip.id,
			NewTip: tip.id,
			Height: tip.height,
			Reorg:  reorg,
		})
	}
	return id, perr
}

// persist appends an accepted block to the store (never during replay —
// those blocks are already in it) and latches any failure in storeErr.
// Caller holds n.mu.
func (n *Node) persist(b Block) error {
	if n.replaying {
		return nil
	}
	if err := n.store.Append(b); err != nil {
		n.storeErr = fmt.Errorf("blockchain: persisting block: %w (node halted to keep the log replayable)", err)
		if n.met != nil {
			n.met.storeHalts.Inc()
		}
		n.journal.Emit("store_halt", map[string]any{"error": err.Error()})
		return n.storeErr
	}
	return nil
}

// recordBody indexes a block that has just been persisted (or replayed)
// so BlockByHash can find it again. Caller holds n.mu; the append index
// mirrors the store's record order exactly because both are driven by
// the same serialized sequence of persists.
func (n *Node) recordBody(id Hash, b Block) {
	if n.reader != nil {
		n.index[id] = n.appended
	} else {
		n.bodies[id] = b
	}
	n.appended++
	if !n.replaying && n.met != nil {
		n.met.accepted.Inc()
	}
}

// connectOrphans walks the orphan pool connecting every parked block
// whose ancestry just became complete. Orphans that fail validation
// once their parent is known are dropped; a persist failure stops the
// walk (storeErr is latched, nothing further may be accepted). Caller
// holds n.mu.
func (n *Node) connectOrphans(parent Hash) {
	queue := []Hash{parent}
	for len(queue) > 0 {
		pid := queue[0]
		queue = queue[1:]
		for _, b := range n.orphans.take(pid) {
			cid, err := n.chain.AddBlock(b)
			if err != nil {
				continue // parked block turned out invalid
			}
			if n.persist(b) != nil {
				return
			}
			n.recordBody(cid, b)
			queue = append(queue, cid)
		}
	}
}

// Subscribe registers for tip-change events with the given channel
// buffer. The returned cancel function unregisters and closes the
// channel. Delivery never blocks the node: a subscriber that falls
// behind loses the oldest undelivered events, always keeping the
// newest.
func (n *Node) Subscribe(buffer int) (<-chan TipEvent, func()) {
	return n.feed.subscribe(buffer)
}

// Template builds a header for the next block under one consistent
// read-snapshot of the tip: PrevHash, Bits and a timestamp strictly
// after the parent's (headers never consult a wall clock beyond the
// caller-supplied now). The merkle callback receives the height and
// timestamp the block will carry and returns the Merkle root committing
// to its transactions; it must not call back into the node.
func (n *Node) Template(now uint64, merkle func(height int, time uint64) Hash) (Header, int, error) {
	n.mu.RLock()
	defer n.mu.RUnlock()
	tip := n.chain.tip
	bits, err := n.chain.NextBits(tip.id)
	if err != nil {
		return Header{}, 0, err
	}
	t := now
	if t <= tip.header.Time {
		t = tip.header.Time + 1
	}
	height := tip.height + 1
	h := Header{
		Version:  1,
		PrevHash: tip.id,
		Time:     t,
		Bits:     bits,
	}
	if merkle != nil {
		h.MerkleRoot = merkle(height, t)
	}
	return h, height, nil
}

// AnnotatedHeader pairs a best-chain header with its block identity, so
// sync peers can request the body by hash without re-hashing the header
// themselves (the PoW digest costs a full hash evaluation; the receiver
// re-validates it anyway when the body arrives).
type AnnotatedHeader struct {
	ID     Hash
	Header Header
}

// Headers returns up to max best-chain headers after the fork point the
// locator describes — the seam node-to-node header sync drives. The
// locator is a list of block IDs, newest first; the first one that is
// known and on the best chain anchors the response (genesis if none
// match). max is clamped to MaxHeadersPerRequest.
func (n *Node) Headers(locator []Hash, max int) []Header {
	page := n.HeadersWithIDs(locator, max)
	if page == nil {
		return nil
	}
	out := make([]Header, len(page))
	for i, ah := range page {
		out[i] = ah.Header
	}
	return out
}

// HeadersWithIDs is Headers plus each header's block identity — the
// response shape the p2p getheaders handler serves.
func (n *Node) HeadersWithIDs(locator []Hash, max int) []AnnotatedHeader {
	if max <= 0 || max > MaxHeadersPerRequest {
		max = MaxHeadersPerRequest
	}
	n.mu.RLock()
	defer n.mu.RUnlock()
	tip := n.chain.tip
	start := n.chain.genesis
	for _, id := range locator {
		nd, ok := n.chain.nodes[id]
		if !ok {
			continue
		}
		if ancestorAt(tip, nd.height) == nd {
			start = nd
			break
		}
	}
	count := tip.height - start.height
	if count > max {
		count = max
	}
	if count <= 0 {
		return nil
	}
	out := make([]AnnotatedHeader, count)
	nd := ancestorAt(tip, start.height+count)
	for i := count - 1; i >= 0; i-- {
		out[i] = AnnotatedHeader{ID: nd.id, Header: nd.header}
		nd = nd.parent
	}
	return out
}

// HasBlock reports whether the block is connected in the tree (orphans
// do not count).
func (n *Node) HasBlock(id Hash) bool {
	n.mu.RLock()
	defer n.mu.RUnlock()
	_, ok := n.chain.nodes[id]
	return ok
}

// BlockByHash returns the full block with the given identity, reading
// the body back through the store. Only persisted blocks are served:
// the genesis block (which has no body) and blocks accepted after a
// store failure report false.
func (n *Node) BlockByHash(id Hash) (Block, bool) {
	n.mu.RLock()
	defer n.mu.RUnlock()
	return n.blockByHashLocked(id)
}

// blockByHashLocked serves one body under an already-held read lock.
func (n *Node) blockByHashLocked(id Hash) (Block, bool) {
	if n.reader == nil {
		b, ok := n.bodies[id]
		return b, ok
	}
	idx, ok := n.index[id]
	if !ok {
		return Block{}, false
	}
	b, err := n.reader.BlockAt(idx)
	if err != nil {
		return Block{}, false
	}
	return b, true
}

// Blocks returns the requested full blocks, in request order, skipping
// unknown hashes. max bounds the response (clamped to
// MaxBlocksPerRequest) — the getblocks handler's defense against a peer
// requesting the whole chain in one message.
func (n *Node) Blocks(hashes []Hash, max int) []Block {
	if max <= 0 || max > MaxBlocksPerRequest {
		max = MaxBlocksPerRequest
	}
	n.mu.RLock()
	defer n.mu.RUnlock()
	var out []Block
	for _, id := range hashes {
		if len(out) >= max {
			break
		}
		if b, ok := n.blockByHashLocked(id); ok {
			out = append(out, b)
		}
	}
	return out
}

// Locator returns a block locator for the best chain: the last few
// tips densely, then exponentially sparser back to genesis — compact
// enough to ship, dense enough that a peer finds a nearby fork point.
func (n *Node) Locator() []Hash {
	n.mu.RLock()
	defer n.mu.RUnlock()
	var out []Hash
	nd := n.chain.tip
	step := 1
	for nd != nil {
		out = append(out, nd.id)
		if nd.height == 0 {
			break
		}
		if len(out) >= 8 {
			step *= 2
		}
		next := nd.height - step
		if next < 0 {
			next = 0
		}
		nd = ancestorAt(nd, next)
	}
	return out
}

// ancestorAt walks n's ancestry to the given height (n itself if
// already at or below it).
func ancestorAt(n *node, height int) *node {
	for n != nil && n.height > height {
		n = n.parent
	}
	return n
}

// reorgDepth counts the old-best-chain blocks abandoned when the tip
// moved from oldTip to newTip: the distance from oldTip back to the two
// branches' common ancestor.
func reorgDepth(oldTip, newTip *node) int {
	fork := oldTip
	for fork != nil && ancestorAt(newTip, fork.height) != fork {
		fork = fork.parent
	}
	if fork == nil {
		return oldTip.height + 1
	}
	return oldTip.height - fork.height
}

// Read accessors: each takes one consistent read-snapshot.

// GenesisID returns the identity of the genesis block.
func (n *Node) GenesisID() Hash {
	n.mu.RLock()
	defer n.mu.RUnlock()
	return n.chain.GenesisID()
}

// TipID returns the identity of the current best block.
func (n *Node) TipID() Hash {
	n.mu.RLock()
	defer n.mu.RUnlock()
	return n.chain.TipID()
}

// TipHeader returns the header of the current best block.
func (n *Node) TipHeader() Header {
	n.mu.RLock()
	defer n.mu.RUnlock()
	return n.chain.TipHeader()
}

// Height returns the height of the best block.
func (n *Node) Height() int {
	n.mu.RLock()
	defer n.mu.RUnlock()
	return n.chain.Height()
}

// TotalWork returns the accumulated expected work of the best chain.
func (n *Node) TotalWork() *big.Int {
	n.mu.RLock()
	defer n.mu.RUnlock()
	return n.chain.TotalWork()
}

// NextBits returns the difficulty a child of parentID must carry.
func (n *Node) NextBits(parentID Hash) (uint32, error) {
	n.mu.RLock()
	defer n.mu.RUnlock()
	return n.chain.NextBits(parentID)
}

// HeaderByID returns the header with the given identity.
func (n *Node) HeaderByID(id Hash) (Header, bool) {
	n.mu.RLock()
	defer n.mu.RUnlock()
	return n.chain.HeaderByID(id)
}

// HeightOf returns the height of a known block.
func (n *Node) HeightOf(id Hash) (int, bool) {
	n.mu.RLock()
	defer n.mu.RUnlock()
	return n.chain.HeightOf(id)
}

// Len returns the number of blocks in the tree (including genesis).
func (n *Node) Len() int {
	n.mu.RLock()
	defer n.mu.RUnlock()
	return n.chain.Len()
}

// OrphanCount returns the number of parked orphan blocks.
func (n *Node) OrphanCount() int {
	n.mu.RLock()
	defer n.mu.RUnlock()
	return n.orphans.len()
}

// OrphanCountFrom returns the number of parked orphans delivered by the
// given origin — the observability hook flood tests and peer-scoring
// policies read.
func (n *Node) OrphanCountFrom(origin string) int {
	n.mu.RLock()
	defer n.mu.RUnlock()
	return n.orphans.countOf(origin)
}
