package blockchain

import (
	"errors"
	"runtime"
	"sync"
	"sync/atomic"

	"hashcore/internal/pow"
)

// BlockResult is one block's outcome in AddBlocksFrom: what AddBlockFrom
// would have returned for it.
type BlockResult struct {
	ID  Hash
	Err error
}

// AddBlocksFrom adds a batch of blocks delivered by one origin. Its
// outcome is exactly that of calling AddBlockFrom on each block in order
// and stopping after the first block rejected with an error other than
// ErrOrphan or ErrDuplicate: it returns one result per block it
// attempted, so a result slice shorter than bs ends at the rejected
// block, and nothing after that block was added. It is faster because
// the PoW digests of the headers are computed on every core ahead of
// the in-order commit (see prehash); each commit takes the node lock on
// its own, as AddBlockFrom does, so block i's append overlaps the
// hashing of the blocks after it.
func (n *Node) AddBlocksFrom(bs []Block, origin string) []BlockResult {
	out := make([]BlockResult, 0, len(bs))
	if len(bs) == 0 {
		return out
	}
	// A batch whose first block is an orphan (a peer withholding parents)
	// is hashed no more than AddBlockFrom would hash it: not at all.
	var ph *prehash
	n.mu.RLock()
	_, known := n.chain.nodes[bs[0].Header.PrevHash]
	n.mu.RUnlock()
	if known {
		ph = startPrehash(n.chain.hasher, bs)
		defer ph.close()
	}
	for i, b := range bs {
		id, err := n.addBlockFrom(b, origin, ph.digest(i))
		out = append(out, BlockResult{ID: id, Err: err})
		switch {
		case err == nil || errors.Is(err, ErrDuplicate):
		case errors.Is(err, ErrOrphan):
			// The rest may be its descendants: look their parents up
			// before hashing them, as AddBlockFrom does.
			ph.stop()
		default:
			return out
		}
	}
	return out
}

// prehash computes the PoW digests of a batch's headers ahead of an
// in-order commit loop, on min(GOMAXPROCS, len(bs)) goroutines that live
// only as long as the batch. Workers take indexes in order from a
// counter, and at most that many blocks past the last committed one are
// ever taken, so when a block stops the batch, at most GOMAXPROCS-1
// blocks after it have been hashed in vain. After stop, no further hash
// starts. The digests come from the node's own hasher over the block
// values the loop commits; a hash error leaves its digest unset, and the
// commit re-hashes and reports it as it always did. All methods are
// no-ops on a nil *prehash, which hands out no digests.
type prehash struct {
	hasher pow.Hasher
	bs     []Block
	ids    []Hash
	ok     []bool
	ready  []chan struct{} // closed once ids[i]/ok[i] are final

	next    atomic.Int64  // next index a worker takes
	slots   chan struct{} // one token per block a worker may take
	quit    chan struct{} // closed by stop
	stopped bool          // stop has run; read and written by the loop only
	wg      sync.WaitGroup
}

func startPrehash(h pow.Hasher, bs []Block) *prehash {
	workers := min(runtime.GOMAXPROCS(0), len(bs))
	p := &prehash{
		hasher: h,
		bs:     bs,
		ids:    make([]Hash, len(bs)),
		ok:     make([]bool, len(bs)),
		ready:  make([]chan struct{}, len(bs)),
		slots:  make(chan struct{}, workers),
		quit:   make(chan struct{}),
	}
	for i := range p.ready {
		p.ready[i] = make(chan struct{})
	}
	for i := 0; i < workers; i++ {
		p.slots <- struct{}{}
	}
	p.wg.Add(workers)
	for i := 0; i < workers; i++ {
		go p.work()
	}
	return p
}

func (p *prehash) work() {
	defer p.wg.Done()
	for {
		select {
		case <-p.slots:
		case <-p.quit:
			return
		}
		j := int(p.next.Add(1) - 1)
		if j >= len(p.bs) {
			return
		}
		select {
		case <-p.quit:
		default:
			if id, err := p.hasher.Hash(p.bs[j].Header.Marshal()); err == nil {
				p.ids[j], p.ok[j] = id, true
			}
		}
		close(p.ready[j])
	}
}

// digest returns block i's precomputed digest, or nil when there is none.
// The loop calls it once per block, in order, after committing block
// i-1, which frees a place for the workers. Before stop it waits for
// the digest; after stop it only takes one that is already there.
func (p *prehash) digest(i int) *Hash {
	if p == nil {
		return nil
	}
	if p.stopped {
		select {
		case <-p.ready[i]:
		default:
			return nil
		}
	} else {
		if i > 0 {
			p.slots <- struct{}{}
		}
		<-p.ready[i]
	}
	if !p.ok[i] {
		return nil
	}
	return &p.ids[i]
}

// stop starts no further hash.
func (p *prehash) stop() {
	if p == nil || p.stopped {
		return
	}
	p.stopped = true
	close(p.quit)
}

// close stops the workers and waits for them to exit.
func (p *prehash) close() {
	if p == nil {
		return
	}
	p.stop()
	p.wg.Wait()
}
