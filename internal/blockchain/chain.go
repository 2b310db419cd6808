package blockchain

import (
	"errors"
	"fmt"
	"math/big"

	"hashcore/internal/pow"
)

// Params fixes the consensus rules of a chain.
type Params struct {
	// GenesisBits is the compact target of the genesis block and the
	// easiest allowed difficulty.
	GenesisBits uint32
	// TargetSpacing is the intended seconds between blocks (the paper
	// motivates "sub-minute block times like those of Ethereum").
	TargetSpacing uint64
	// RetargetInterval is the number of blocks between difficulty
	// adjustments.
	RetargetInterval int
	// MaxAdjust bounds a single retarget step (4 means the target may at
	// most quadruple or quarter), as in Bitcoin.
	MaxAdjust int64
	// GenesisTime is the timestamp of the genesis block.
	GenesisTime uint64
}

// DefaultParams returns a test-friendly parameter set: 30-second blocks
// retargeting every 8 blocks at difficulty cap MainPowLimit.
func DefaultParams() Params {
	return Params{
		GenesisBits:      pow.TargetToCompact(pow.MainPowLimit),
		TargetSpacing:    30,
		RetargetInterval: 8,
		MaxAdjust:        4,
		GenesisTime:      1_500_000_000,
	}
}

// Block is a full block: a header plus the transactions (opaque payloads)
// the header's Merkle root commits to.
type Block struct {
	Header Header
	Txs    [][]byte
}

// node is chain-internal block metadata.
type node struct {
	header    Header
	id        Hash // PoW digest of the header
	height    int
	totalWork *big.Int
	parent    *node
}

// Chain is an in-memory block tree with total-work fork choice. It is not
// safe for concurrent use; callers serialize access.
type Chain struct {
	params  Params
	hasher  pow.Hasher
	nodes   map[Hash]*node
	tip     *node
	genesis *node
}

// Validation errors.
var (
	ErrUnknownParent = errors.New("blockchain: unknown parent block")
	ErrBadBits       = errors.New("blockchain: wrong difficulty bits")
	ErrBadPoW        = errors.New("blockchain: header does not meet its target")
	ErrBadMerkle     = errors.New("blockchain: merkle root does not commit to transactions")
	ErrBadTime       = errors.New("blockchain: timestamp not later than parent")
	ErrDuplicate     = errors.New("blockchain: duplicate block")
)

// NewChain creates a chain whose genesis header is fixed by params. The
// genesis block is exempt from PoW (as is conventional for test chains).
func NewChain(params Params, hasher pow.Hasher) (*Chain, error) {
	if params.RetargetInterval < 1 || params.TargetSpacing == 0 || params.MaxAdjust < 2 {
		return nil, errors.New("blockchain: invalid chain parameters")
	}
	if _, err := pow.CompactToTarget(params.GenesisBits); err != nil {
		return nil, fmt.Errorf("blockchain: genesis bits: %w", err)
	}
	genesisHeader := Header{
		Version: 1,
		Time:    params.GenesisTime,
		Bits:    params.GenesisBits,
	}
	id, err := hasher.Hash(genesisHeader.Marshal())
	if err != nil {
		return nil, fmt.Errorf("blockchain: hashing genesis: %w", err)
	}
	g := &node{
		header:    genesisHeader,
		id:        id,
		height:    0,
		totalWork: big.NewInt(0),
	}
	c := &Chain{
		params:  params,
		hasher:  hasher,
		nodes:   map[Hash]*node{id: g},
		tip:     g,
		genesis: g,
	}
	return c, nil
}

// GenesisID returns the identity (PoW digest) of the genesis block.
func (c *Chain) GenesisID() Hash { return c.genesis.id }

// TipID returns the identity of the current best block.
func (c *Chain) TipID() Hash { return c.tip.id }

// TipHeader returns the header of the current best block.
func (c *Chain) TipHeader() Header { return c.tip.header }

// Height returns the height of the best block (genesis is 0).
func (c *Chain) Height() int { return c.tip.height }

// TotalWork returns the accumulated expected work of the best chain.
func (c *Chain) TotalWork() *big.Int { return new(big.Int).Set(c.tip.totalWork) }

// NextBits returns the difficulty bits a child of parentID must carry.
// Every RetargetInterval blocks the target scales by actual/expected
// elapsed time over the last interval, clamped to MaxAdjust per step and
// floored at GenesisBits difficulty.
func (c *Chain) NextBits(parentID Hash) (uint32, error) {
	parent, ok := c.nodes[parentID]
	if !ok {
		return 0, ErrUnknownParent
	}
	nextHeight := parent.height + 1
	if nextHeight%c.params.RetargetInterval != 0 {
		return parent.header.Bits, nil
	}
	// Walk back one full interval.
	first := parent
	for i := 0; i < c.params.RetargetInterval-1 && first.parent != nil; i++ {
		first = first.parent
	}
	actual := int64(parent.header.Time) - int64(first.header.Time)
	expected := int64(c.params.TargetSpacing) * int64(c.params.RetargetInterval-1)
	if expected <= 0 {
		expected = 1
	}
	if actual < expected/c.params.MaxAdjust {
		actual = expected / c.params.MaxAdjust
	}
	if actual > expected*c.params.MaxAdjust {
		actual = expected * c.params.MaxAdjust
	}

	oldTarget, err := pow.CompactToTarget(parent.header.Bits)
	if err != nil {
		return 0, err
	}
	newTarget := new(big.Int).Mul(oldTarget.Big(), big.NewInt(actual))
	newTarget.Div(newTarget, big.NewInt(expected))

	limit, err := pow.CompactToTarget(c.params.GenesisBits)
	if err != nil {
		return 0, err
	}
	if newTarget.Cmp(limit.Big()) > 0 {
		newTarget.Set(limit.Big())
	}
	if newTarget.Sign() == 0 {
		newTarget.SetInt64(1)
	}
	return pow.TargetToCompact(pow.FromBig(newTarget)), nil
}

// AddBlock validates b against its parent and inserts it, updating the tip
// if the new block's chain has more total work. It returns the block's
// identity hash.
func (c *Chain) AddBlock(b Block) (Hash, error) { return c.addBlock(b, nil) }

// addBlock is AddBlock with an optional precomputed PoW digest. A non-nil
// pre must be c.hasher's digest of b.Header.Marshal(), computed by this
// process (never a peer's claim); it replaces only the hasher call, so
// every check runs, in the same order, with or without it.
func (c *Chain) addBlock(b Block, pre *Hash) (Hash, error) {
	parent, ok := c.nodes[b.Header.PrevHash]
	if !ok {
		return Hash{}, ErrUnknownParent
	}
	wantBits, err := c.NextBits(parent.id)
	if err != nil {
		return Hash{}, err
	}
	if b.Header.Bits != wantBits {
		return Hash{}, fmt.Errorf("%w: got %#x, want %#x", ErrBadBits, b.Header.Bits, wantBits)
	}
	if b.Header.Time <= parent.header.Time {
		return Hash{}, fmt.Errorf("%w: %d <= parent %d", ErrBadTime, b.Header.Time, parent.header.Time)
	}
	if got := MerkleRoot(b.Txs); got != b.Header.MerkleRoot {
		return Hash{}, ErrBadMerkle
	}

	target, err := pow.CompactToTarget(b.Header.Bits)
	if err != nil {
		return Hash{}, err
	}
	var id Hash
	if pre != nil {
		id = *pre
	} else if id, err = c.hasher.Hash(b.Header.Marshal()); err != nil {
		return Hash{}, fmt.Errorf("blockchain: hashing header: %w", err)
	}
	if !pow.Check(id, target) {
		return Hash{}, ErrBadPoW
	}
	if _, dup := c.nodes[id]; dup {
		return Hash{}, ErrDuplicate
	}

	n := &node{
		header:    b.Header,
		id:        id,
		height:    parent.height + 1,
		totalWork: new(big.Int).Add(parent.totalWork, target.Work()),
		parent:    parent,
	}
	c.nodes[id] = n
	// Fork choice: strictly more total work wins (first-seen on ties).
	if n.totalWork.Cmp(c.tip.totalWork) > 0 {
		c.tip = n
	}
	return id, nil
}

// HeaderByID returns the header with the given identity.
func (c *Chain) HeaderByID(id Hash) (Header, bool) {
	n, ok := c.nodes[id]
	if !ok {
		return Header{}, false
	}
	return n.header, true
}

// HeightOf returns the height of a known block.
func (c *Chain) HeightOf(id Hash) (int, bool) {
	n, ok := c.nodes[id]
	if !ok {
		return 0, false
	}
	return n.height, true
}

// Len returns the number of blocks in the tree (including genesis).
func (c *Chain) Len() int { return len(c.nodes) }
