package blockchain

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"testing"

	"hashcore/internal/baseline"
	"hashcore/internal/pow"
)

// easyParams is DefaultParams at four leading zero bits, so a test chain
// of a hundred blocks mines in a few thousand sha256d evaluations.
func easyParams() Params {
	p := DefaultParams()
	p.GenesisBits = pow.TargetToCompact(pow.Target{0x0f, 0xff, 0xff})
	return p
}

func newEasyChain(t testing.TB) *Chain {
	t.Helper()
	c, err := NewChain(easyParams(), baseline.SHA256d{})
	if err != nil {
		t.Fatal(err)
	}
	return c
}

// grow mines count blocks onto parent in the scratch chain c (which must
// use easyParams) and returns them in height order.
func grow(t testing.TB, c *Chain, parent Hash, count int, tag byte) []Block {
	t.Helper()
	out := make([]Block, 0, count)
	for i := 0; i < count; i++ {
		ph, ok := c.HeaderByID(parent)
		if !ok {
			t.Fatal("grow: unknown parent")
		}
		bits, err := c.NextBits(parent)
		if err != nil {
			t.Fatal(err)
		}
		txs := [][]byte{{tag, byte(i), byte(i >> 8)}}
		hd := Header{Version: 1, PrevHash: parent, MerkleRoot: MerkleRoot(txs), Time: ph.Time + 30, Bits: bits}
		b := Block{Header: hd, Txs: txs}
		for !meetsTarget(t, b.Header) {
			b.Header.Nonce++
		}
		if parent, err = c.AddBlock(b); err != nil {
			t.Fatal(err)
		}
		out = append(out, b)
	}
	return out
}

func meetsTarget(t testing.TB, h Header) bool {
	target, err := pow.CompactToTarget(h.Bits)
	if err != nil {
		t.Fatal(err)
	}
	d, _ := baseline.SHA256d{}.Hash(h.Marshal())
	return pow.Check(d, target)
}

// withBadPoW returns b with a nonce its header does not meet the target
// under.
func withBadPoW(t testing.TB, b Block) Block {
	for b.Header.Nonce++; meetsTarget(t, b.Header); b.Header.Nonce++ {
	}
	return b
}

// countingHasher is sha256d that counts its calls, per header too.
type countingHasher struct {
	mu    sync.Mutex
	calls int
	per   map[Header]int
}

func (h *countingHasher) Hash(header []byte) ([32]byte, error) {
	hd, err := UnmarshalHeader(header)
	if err != nil {
		return [32]byte{}, err
	}
	h.mu.Lock()
	h.calls++
	if h.per == nil {
		h.per = make(map[Header]int)
	}
	h.per[hd]++
	h.mu.Unlock()
	return baseline.SHA256d{}.Hash(header)
}

func (h *countingHasher) Name() string { return "counting-sha256d" }

func (h *countingHasher) reset() {
	h.mu.Lock()
	h.calls, h.per = 0, nil
	h.mu.Unlock()
}

func (h *countingHasher) total() int {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.calls
}

func (h *countingHasher) of(hd Header) int {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.per[hd]
}

func openCounted(t testing.TB, store Store) (*Node, *countingHasher) {
	t.Helper()
	h := &countingHasher{}
	n, err := OpenNode(NodeConfig{Params: easyParams(), Hasher: h, Store: store})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { n.Close() })
	h.reset()
	return n, h
}

// addSerial is the reference the batch path must match: AddBlockFrom on
// each block, stopping after the first rejection other than an orphan
// or a duplicate, as the p2p blocks handler did block by block.
func addSerial(n *Node, bs []Block, origin string) []BlockResult {
	var out []BlockResult
	for _, b := range bs {
		id, err := n.AddBlockFrom(b, origin)
		out = append(out, BlockResult{ID: id, Err: err})
		if err != nil && !errors.Is(err, ErrOrphan) && !errors.Is(err, ErrDuplicate) {
			break
		}
	}
	return out
}

func sameResults(t testing.TB, got, want []BlockResult) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("batch returned %d results, serial %d", len(got), len(want))
	}
	for i := range got {
		if got[i].ID != want[i].ID || fmt.Sprint(got[i].Err) != fmt.Sprint(want[i].Err) {
			t.Fatalf("result %d: batch (%x, %v), serial (%x, %v)", i, got[i].ID[:4], got[i].Err, want[i].ID[:4], want[i].Err)
		}
	}
}

func sameState(t testing.TB, a, b *Node) {
	t.Helper()
	if a.TipID() != b.TipID() || a.Height() != b.Height() || a.TotalWork().Cmp(b.TotalWork()) != 0 ||
		a.Len() != b.Len() || a.OrphanCount() != b.OrphanCount() {
		t.Fatalf("batch node at height %d (len %d, %d orphans), serial at %d (len %d, %d orphans)",
			a.Height(), a.Len(), a.OrphanCount(), b.Height(), b.Len(), b.OrphanCount())
	}
}

// withProcs runs fn at each GOMAXPROCS in turn.
func withProcs(t *testing.T, fn func(t *testing.T, procs int)) {
	for _, procs := range []int{1, 2, 4} {
		t.Run(fmt.Sprintf("procs=%d", procs), func(t *testing.T) {
			defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
			fn(t, procs)
		})
	}
}

// TestAddBlocksFromMatchesSerial: batches and single blocks over the
// same delivery (a chain, then a heavier fork that reorgs it, with
// duplicates) give the same results, tip, height and total work, and
// byte-identical block logs.
func TestAddBlocksFromMatchesSerial(t *testing.T) {
	c := newEasyChain(t)
	main := grow(t, c, c.GenesisID(), 40, 'm')
	fork := grow(t, c, main[24].Header.PrevHash, 20, 'f')
	delivery := append(append(append([]Block{}, main...), fork...), main[30:35]...)

	dir := t.TempDir()
	openLog := func(name string) (*Node, *FileStore) {
		fs, err := OpenFileStore(filepath.Join(dir, name))
		if err != nil {
			t.Fatal(err)
		}
		n, err := OpenNode(NodeConfig{Params: easyParams(), Hasher: baseline.SHA256d{}, Store: fs})
		if err != nil {
			t.Fatal(err)
		}
		return n, fs
	}
	batch, _ := openLog("batch.log")
	serial, _ := openLog("serial.log")
	for i := 0; i < len(delivery); i += 16 {
		chunk := delivery[i:min(i+16, len(delivery))]
		sameResults(t, batch.AddBlocksFrom(chunk, "peer"), addSerial(serial, chunk, "peer"))
	}
	sameState(t, batch, serial)
	if batch.Height() != 44 {
		t.Fatalf("height = %d, want the fork's 44", batch.Height())
	}
	tip, work := batch.TipID(), batch.TotalWork()
	batch.Close()
	serial.Close()
	a, err := os.ReadFile(filepath.Join(dir, "batch.log"))
	if err != nil {
		t.Fatal(err)
	}
	b, err := os.ReadFile(filepath.Join(dir, "serial.log"))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a, b) {
		t.Fatal("batch and serial block logs differ")
	}
	// The batched log replays (in chunks) to the same state.
	re, _ := openLog("batch.log")
	defer re.Close()
	if re.TipID() != tip || re.TotalWork().Cmp(work) != 0 || re.Replayed() != len(delivery)-5 {
		t.Fatalf("replay reached height %d after %d blocks", re.Height(), re.Replayed())
	}
}

// TestAddBlocksFromInvalidStops: an invalid block at index k stops the
// batch there. Blocks before it connect, none from it on do, and no
// block more than GOMAXPROCS-1 past it is ever hashed; with a bad nonce
// (a block the serial path hashes too) that is the whole extra cost.
func TestAddBlocksFromInvalidStops(t *testing.T) {
	c := newEasyChain(t)
	main := grow(t, c, c.GenesisID(), 16, 'm')
	const k = 5
	corrupt := map[string]func(Block) Block{
		"nonce": func(b Block) Block { return withBadPoW(t, b) },
		"merkle": func(b Block) Block {
			b.Header.MerkleRoot[0] ^= 1
			return b
		},
		"time": func(b Block) Block {
			b.Header.Time = 1
			return b
		},
	}
	withProcs(t, func(t *testing.T, procs int) {
		for name, fn := range corrupt {
			batch := append([]Block{}, main...)
			batch[k] = fn(batch[k])
			n, h := openCounted(t, nil)
			res := n.AddBlocksFrom(batch, "peer")
			if len(res) != k+1 || res[k].Err == nil {
				t.Fatalf("%s: %d results, last error %v; want the batch to stop at %d", name, len(res), res[len(res)-1].Err, k)
			}
			for i := 0; i < k; i++ {
				if res[i].Err != nil {
					t.Fatalf("%s: block %d: %v", name, i, res[i].Err)
				}
			}
			if n.Height() != k || n.OrphanCount() != 0 {
				t.Fatalf("%s: height %d with %d orphans, want %d and none", name, n.Height(), n.OrphanCount(), k)
			}
			for i := k + procs; i < len(batch); i++ {
				if h.of(batch[i].Header) != 0 {
					t.Fatalf("%s: block %d hashed, more than %d past the invalid block %d", name, i, procs-1, k)
				}
			}
			if name == "nonce" && h.total() > k+1+procs-1 {
				t.Fatalf("nonce: %d hashes, serial path needs %d, bound %d more", h.total(), k+1, procs-1)
			}
		}
	})
}

// TestAddBlocksFromOrphanAtStart: a batch whose first block's parent is
// withheld parks every block without hashing any, and all of them
// connect once the parent lands.
func TestAddBlocksFromOrphanAtStart(t *testing.T) {
	c := newEasyChain(t)
	main := grow(t, c, c.GenesisID(), 12, 'm')
	withProcs(t, func(t *testing.T, procs int) {
		n, h := openCounted(t, nil)
		for _, r := range n.AddBlocksFrom(main[:4], "peer") {
			if r.Err != nil {
				t.Fatal(r.Err)
			}
		}
		h.reset()
		res := n.AddBlocksFrom(main[5:], "peer")
		if len(res) != len(main)-5 {
			t.Fatalf("%d results, want %d", len(res), len(main)-5)
		}
		for i, r := range res {
			if !errors.Is(r.Err, ErrOrphan) {
				t.Fatalf("block %d: %v, want ErrOrphan", i, r.Err)
			}
		}
		if got := h.total(); got != 0 {
			t.Fatalf("orphans cost %d hashes, want none", got)
		}
		if _, err := n.AddBlock(main[4]); err != nil {
			t.Fatal(err)
		}
		if n.Height() != len(main) || n.OrphanCount() != 0 {
			t.Fatalf("height %d with %d orphans after the parent landed", n.Height(), n.OrphanCount())
		}
	})
}

// TestAddBlocksFromOrphanMidBatch: past a gap the batch goes serial, so
// the orphans after the window are parked without being hashed, and the
// whole run connects when the missing parent lands.
func TestAddBlocksFromOrphanMidBatch(t *testing.T) {
	c := newEasyChain(t)
	main := grow(t, c, c.GenesisID(), 20, 'm')
	const k = 4
	withProcs(t, func(t *testing.T, procs int) {
		n, h := openCounted(t, nil)
		batch := append(append([]Block{}, main[:k]...), main[k+1:]...)
		res := n.AddBlocksFrom(batch, "peer")
		if len(res) != len(batch) {
			t.Fatalf("%d results, want %d", len(res), len(batch))
		}
		for i, r := range res {
			if i < k && r.Err != nil || i >= k && !errors.Is(r.Err, ErrOrphan) {
				t.Fatalf("block %d: %v", i, r.Err)
			}
		}
		for i := k + procs; i < len(batch); i++ {
			if h.of(batch[i].Header) != 0 {
				t.Fatalf("orphan %d hashed before its parent landed", i)
			}
		}
		if _, err := n.AddBlock(main[k]); err != nil {
			t.Fatal(err)
		}
		if n.Height() != len(main) || n.OrphanCount() != 0 {
			t.Fatalf("height %d with %d orphans after the parent landed", n.Height(), n.OrphanCount())
		}
	})
}

// TestAddBlocksFromStoreFailure: an append failure mid-batch latches
// storeErr and stops the batch; the log keeps exactly the prefix it had,
// as on the serial path.
func TestAddBlocksFromStoreFailure(t *testing.T) {
	c := newEasyChain(t)
	main := grow(t, c, c.GenesisID(), 12, 'm')
	withProcs(t, func(t *testing.T, procs int) {
		bs := &failingStore{MemStore: NewMemStore(), failAfter: 3}
		ss := &failingStore{MemStore: NewMemStore(), failAfter: 3}
		batch, _ := openCounted(t, bs)
		serial, _ := openCounted(t, ss)
		res := batch.AddBlocksFrom(main, "peer")
		sameResults(t, res, addSerial(serial, main, "peer"))
		if len(res) != 4 || res[3].Err == nil || res[3].Err != batch.Err() {
			t.Fatalf("%d results, last error %v; want a stop at the failed append", len(res), res[len(res)-1].Err)
		}
		if bs.Len() != 3 {
			t.Fatalf("store holds %d blocks, want the 3-block prefix", bs.Len())
		}
		sameState(t, batch, serial)
		res = batch.AddBlocksFrom(main[4:], "peer")
		if len(res) != 1 || res[0].Err != batch.Err() || bs.Len() != 3 {
			t.Fatalf("halted node took a batch: %d results, %v", len(res), res[0].Err)
		}
	})
}

// writeLog writes blocks as a FileStore block log at path.
func writeLog(t *testing.T, path string, blocks []Block) {
	t.Helper()
	fs, err := OpenFileStore(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := fs.Load(func(Block) error { return nil }); err != nil {
		t.Fatal(err)
	}
	for _, b := range blocks {
		if err := fs.Append(b); err != nil {
			t.Fatal(err)
		}
	}
	if err := fs.Close(); err != nil {
		t.Fatal(err)
	}
}

// serialReplayErr is the error block-by-block replay returns for blocks.
func serialReplayErr(t *testing.T, blocks []Block) string {
	c := newEasyChain(t)
	for _, b := range blocks {
		if _, err := c.AddBlock(b); err != nil {
			return fmt.Sprintf("blockchain: replaying block log at height %d: %v", c.Height()+1, err)
		}
	}
	return "<nil>"
}

// TestReplayTamperedLog: a log tampered at block k fails replay with
// the error (and height) a block-by-block replay reports, on either
// side of the chunk boundaries.
func TestReplayTamperedLog(t *testing.T) {
	c := newEasyChain(t)
	main := grow(t, c, c.GenesisID(), 2*replayChunk+10, 'm')
	if got := serialReplayErr(t, main); got != "<nil>" {
		t.Fatal(got)
	}
	dir := t.TempDir()
	for _, k := range []int{0, 1, replayChunk - 1, replayChunk, replayChunk + 1, len(main) - 1} {
		for name, tamper := range map[string]func(*Block){
			"nonce": func(b *Block) { *b = withBadPoW(t, *b) },
			"time":  func(b *Block) { b.Header.Time = 1 },
			"bits":  func(b *Block) { b.Header.Bits = pow.TargetToCompact(pow.MainPowLimit) },
			"tx":    func(b *Block) { b.Txs = [][]byte{[]byte("forged")} },
			"drop":  func(b *Block) { b.Header.PrevHash[0] ^= 1 },
		} {
			blocks := append([]Block{}, main...)
			tamper(&blocks[k])
			want := serialReplayErr(t, blocks)
			path := filepath.Join(dir, fmt.Sprintf("%s-%d.log", name, k))
			writeLog(t, path, blocks)
			fs, err := OpenFileStore(path)
			if err != nil {
				t.Fatal(err)
			}
			_, err = OpenNode(NodeConfig{Params: easyParams(), Hasher: baseline.SHA256d{}, Store: fs})
			if fmt.Sprint(err) != want {
				t.Fatalf("%s at %d: replay error\n got  %v\n want %s", name, k, err, want)
			}
		}
	}
}

// TestReplayErrorBeforeDamagedRecord: when a log holds a tampered block
// and, after it, a record that checksums but does not decode, the
// tampered block's replay error is reported, as a block-by-block replay
// (which never reads past the tampered block) reports it.
func TestReplayErrorBeforeDamagedRecord(t *testing.T) {
	c := newEasyChain(t)
	main := grow(t, c, c.GenesisID(), 10, 'm')
	blocks := append([]Block{}, main...)
	blocks[3].Header.Time = 1
	path := filepath.Join(t.TempDir(), "damaged.log")
	writeLog(t, path, blocks)
	f, err := os.OpenFile(path, os.O_APPEND|os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	payload := []byte("not a block")
	rec := binary.LittleEndian.AppendUint32(nil, uint32(len(payload)))
	rec = append(rec, payload...)
	rec = binary.LittleEndian.AppendUint32(rec, crc32.ChecksumIEEE(payload))
	if _, err := f.Write(rec); err != nil {
		t.Fatal(err)
	}
	f.Close()
	fs, err := OpenFileStore(path)
	if err != nil {
		t.Fatal(err)
	}
	_, err = OpenNode(NodeConfig{Params: easyParams(), Hasher: baseline.SHA256d{}, Store: fs})
	if want := serialReplayErr(t, blocks); fmt.Sprint(err) != want {
		t.Fatalf("replay error\n got  %v\n want %s", err, want)
	}
}

func newTestNodeWith(t testing.TB, params Params) *Node {
	t.Helper()
	n, err := OpenNode(NodeConfig{Params: params, Hasher: baseline.SHA256d{}})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { n.Close() })
	return n
}
