// Package vm executes widget programs deterministically.
//
// The VM is the functional half of the reproduction's execution substrate
// (the timing half is internal/uarch). It interprets a validated
// prog.Program and produces the widget output the paper describes: "a
// series of snapshots of the computer's register contents captured every
// few thousand instructions". Every architectural register is included in
// each snapshot, so every executed instruction influences the output — the
// paper's irreducibility requirement ("if even a single bit is incorrect in
// the proxy output then the resulting hash will be invalid").
//
// Determinism contract: given the same program and parameters, Run produces
// bit-identical output on every platform and Go release. This is what makes
// the enclosing PoW verifiable. The contract is maintained by:
//   - fixed-width two's-complement integer semantics;
//   - one IEEE-754 binary operation per statement (no FMA contraction);
//   - canonicalized NaNs after every FP operation;
//   - masked, aligned scratch-memory addressing;
//   - a hard dynamic-instruction budget so execution always terminates.
//
// Machines are reusable: Load swaps in a new program while retaining the
// decoded-code and scratch-memory storage, and RunInto appends output into
// a caller-owned Result, so a hot loop (core.Session, the miner) executes
// arbitrarily many widgets without allocating. The ISA's semantics live in
// exactly one Go function, execute, which the interpreter's block loop
// (runBlocks) drives block by block and the native backend (backend.go)
// falls back to at budget and snapshot boundaries. A block that retires
// wholly inside the budget and the snapshot window is accounted wholesale;
// a boundary block, or any block while an Observer is attached, executes
// and retires one instruction at a time, so every retirement is exact and
// visible as an Event.
package vm

import (
	"encoding/binary"
	"fmt"
	"math"
	"math/bits"
	"unsafe"

	"hashcore/internal/isa"
	"hashcore/internal/prog"
	"hashcore/internal/rng"
)

// prog.FlatInstr is declared field-for-field compatible with flatInstr so
// LoadTrusted can adopt a builder-materialized flat stream as the decoded
// code without a per-instruction copy. This init pins the layout contract
// (the jit.Instr twin is pinned in backend.go).
func init() {
	var fi flatInstr
	var pi prog.FlatInstr
	if unsafe.Sizeof(fi) != unsafe.Sizeof(pi) ||
		unsafe.Offsetof(fi.imm) != unsafe.Offsetof(pi.Imm) ||
		unsafe.Offsetof(fi.target) != unsafe.Offsetof(pi.Target) ||
		unsafe.Offsetof(fi.aux) != unsafe.Offsetof(pi.Aux) ||
		unsafe.Offsetof(fi.op) != unsafe.Offsetof(pi.Op) ||
		unsafe.Offsetof(fi.class) != unsafe.Offsetof(pi.Class) ||
		unsafe.Offsetof(fi.dst) != unsafe.Offsetof(pi.Dst) ||
		unsafe.Offsetof(fi.a) != unsafe.Offsetof(pi.A) ||
		unsafe.Offsetof(fi.b) != unsafe.Offsetof(pi.B) {
		panic("vm: flatInstr and prog.FlatInstr layouts diverged")
	}
}

// Default execution parameters.
const (
	DefaultSnapshotInterval = 2048
	DefaultMaxInstructions  = 8 << 20 // 8M retired instructions
)

// SnapshotSize is the encoded size of one register snapshot in bytes:
// 16 integer registers + 16 FP registers + 8 xor-folded vector registers +
// the retired-instruction counter, 8 bytes each.
const SnapshotSize = (isa.NumIntRegs + isa.NumFPRegs + isa.NumVecRegs + 1) * 8

// canonicalNaN is the single NaN bit pattern the VM allows to be observed,
// making FP results platform-independent.
const canonicalNaN = 0x7ff8000000000000

// Params configures an execution.
type Params struct {
	// SnapshotInterval is the number of retired instructions between
	// register snapshots. 0 means DefaultSnapshotInterval.
	SnapshotInterval uint64
	// MaxInstructions is the hard budget of retired instructions; if
	// reached, execution stops and the result is marked truncated.
	// 0 means DefaultMaxInstructions.
	MaxInstructions uint64
}

func (p Params) withDefaults() Params {
	if p.SnapshotInterval == 0 {
		p.SnapshotInterval = DefaultSnapshotInterval
	}
	if p.MaxInstructions == 0 {
		p.MaxInstructions = DefaultMaxInstructions
	}
	return p
}

// Event describes one retired instruction, delivered to an Observer. The
// pointer passed to OnRetire is reused between calls; observers must not
// retain it.
type Event struct {
	// StaticID is the flat index of the instruction in the program,
	// used as the static PC identity for predictors and caches.
	StaticID uint32
	Op       isa.Opcode
	Class    isa.Class
	Dst      uint8
	A        uint8
	B        uint8
	// Addr is the effective byte address for loads and stores.
	Addr uint64
	// IsMem reports whether Addr is meaningful.
	IsMem bool
	// Taken reports the outcome of branch instructions (conditional
	// branches and jumps).
	Taken bool
}

// Observer receives retired-instruction events (e.g. the uarch timing
// model or the profiler).
type Observer interface {
	OnRetire(ev *Event)
}

// Result is the outcome of an execution.
type Result struct {
	// Output is the widget output: the concatenated register snapshots.
	Output []byte
	// Retired is the number of retired instructions.
	Retired uint64
	// Truncated reports whether the instruction budget stopped execution
	// before a halt instruction.
	Truncated bool
	// Snapshots is the number of snapshots taken.
	Snapshots int
	// ClassCounts counts retired instructions per resource class.
	ClassCounts [isa.NumClasses]uint64
	// CondBranches and TakenBranches count conditional branches retired
	// and those taken.
	CondBranches  uint64
	TakenBranches uint64
}

// reset clears the result for a fresh execution, retaining Output's
// backing storage so repeated RunInto calls do not allocate.
func (r *Result) reset() {
	r.Output = r.Output[:0]
	r.Retired = 0
	r.Truncated = false
	r.Snapshots = 0
	r.ClassCounts = [isa.NumClasses]uint64{}
	r.CondBranches = 0
	r.TakenBranches = 0
}

// flatInstr is a pre-decoded instruction, one per architectural
// instruction. The layout is ordered widest-field-first so the struct packs
// into 24 bytes (no padding holes) and the decoded program stays dense in
// the data cache. Control instructions carry their target twice: aux is the
// block index the executor transfers to, target the flat code index of that
// block's first instruction (part of the layout shared with prog.FlatInstr
// and jit.Instr).
type flatInstr struct {
	imm       int64
	target    uint32
	aux       uint32
	op        isa.Opcode
	class     isa.Class
	dst, a, b uint8
}

// blockMeta locates one basic block in m.code.
type blockMeta struct {
	start uint32 // first instruction (m.code index)
	count uint32 // instructions retired by the full block
}

// Machine is a reusable executor. Construct with New (or the zero value
// plus Load), then call Run or RunInto. A Machine may execute many
// programs: Load replaces the program while keeping the decoded-code
// slices, block metadata and scratch memory, so steady-state reloads
// allocate nothing. A Machine is not safe for concurrent use.
type Machine struct {
	code    []flatInstr // decoded program (may alias Program.Flat)
	ownCode []flatInstr // machine-owned decode storage (code points here when not aliasing)
	memSize int
	memSeed uint64
	mem     []byte

	blocks      []blockMeta
	blockTally  [][isa.NumClasses]uint32 // per-block class tallies
	blockStart  []uint32                 // scratch for Load, reused across programs
	statScratch []prog.BlockStats        // fallback stats for programs without p.Stats

	// execs counts, per block, the executions accounted wholesale in the
	// current run (by either engine); uint64 because a hot loop block can
	// execute more than 2^32 times under a large MaxInstructions budget.
	// Class counts for those executions are folded in from blockTally when
	// the run ends (see finishRun).
	execs []uint64

	// Dirty-word memory tracking: when the machine re-runs the same
	// memory image (ablation experiments, benchmarks, repeated Run calls
	// on one program), a run records every stored word address (every
	// dynamic store, duplicates included — no dedup on the hot path) so
	// the next reset can repair just those words from the SplitMix64
	// image (O(stores)) instead of regenerating the whole scratch memory
	// (O(memSize)). Recording only arms on the second consecutive run of
	// the same (seed, size) image — the production session loads a fresh
	// program with a fresh MemSeed per hash, so it never arms, never
	// allocates the dirty list and pays one predicted branch per store.
	// memGoodSeed/memGoodSize describe the pristine image the repair
	// restores; dirtyOverflow forces a full regeneration when a run
	// performs more dynamic stores than the bounded list records.
	dirty         []uint32
	trackDirty    bool
	dirtyOverflow bool
	memGood       bool
	memGoodSeed   uint64
	memGoodSize   int

	// memPrepared* record a PrepareMemory call whose image the next reset
	// may adopt without touching memory (see PrepareMemory).
	memPrepared     bool
	memPreparedSeed uint64
	memPreparedSize int

	intRegs [isa.NumIntRegs]uint64
	fpRegs  [isa.NumFPRegs]uint64 // IEEE-754 bits
	vecRegs [isa.NumVecRegs][isa.VecLanes]uint64

	// ev is the Event handed to an Observer, reused for every retirement
	// so observed runs do not allocate.
	ev Event

	// Native backend state (see backend.go): the configured engine, the
	// per-Machine JIT cache, the load generation that keys it, and the
	// last run's execution report.
	backend   Backend
	native    *nativeState
	loadGen   uint64
	lastStats RunStats
}

// maxDirtyWords bounds the dirty-word list (32768 uint32 addresses, 128
// KiB, allocated only once tracking arms — see reset). A run
// that stores more than this many times falls back to full scratch-memory
// regeneration on the next reset.
const maxDirtyWords = 1 << 15

// markDirty records that the 8-byte word at addr no longer matches the
// pristine memory image. addr is always < memSize <= prog.MaxMemSize, so it
// fits uint32. A no-op unless reset armed tracking for this run.
func (m *Machine) markDirty(addr uint64) {
	if !m.trackDirty {
		return
	}
	if len(m.dirty) < cap(m.dirty) {
		m.dirty = append(m.dirty, uint32(addr))
	} else {
		m.dirtyOverflow = true
	}
}

// New pre-decodes and validates p for execution.
func New(p *prog.Program) (*Machine, error) {
	m := &Machine{}
	if err := m.Load(p); err != nil {
		return nil, err
	}
	return m, nil
}

// Load validates p and swaps it in as the machine's program, reusing the
// machine's decoded-code storage.
func (m *Machine) Load(p *prog.Program) error {
	if err := p.Validate(); err != nil {
		return fmt.Errorf("vm: %w", err)
	}
	m.LoadTrusted(p)
	return nil
}

// CodeSize reports the size of the currently loaded program: its
// instruction count and its basic-block count.
func (m *Machine) CodeSize() (instrs, blocks int) {
	return len(m.code), len(m.blocks)
}

// LoadTrusted is Load without the validation pass, for programs that are
// already known to be structurally valid (e.g. just returned by
// prog.Builder.Build, which validates). Loading an unvalidated program
// may make Run panic with an out-of-range access.
//
// Loading decodes the program into one flat instruction stream plus
// per-block metadata — length and class tallies — that lets a block be
// accounted at once when it cannot cross a boundary. Tallies come from
// p.Stats when the program carries them (prog.Builder fills and
// prog.Validate verifies them) and are recomputed here otherwise.
//
// Programs that carry a pre-decoded Flat stream (prog.Builder fills it on
// the same arena pass that carves the blocks) skip the per-instruction
// flatten entirely: the machine adopts the arena view in place — layouts
// are asserted identical at init — and only the O(blocks) metadata is
// rebuilt. The adopted view follows the program's lifetime contract (it
// aliases builder storage until the builder's next Reset), which matches
// the load-then-run-then-regenerate cycle of the hashing session; the
// native backend's compiler reads from the same view, so it too consumes
// the arena without a copy.
func (m *Machine) LoadTrusted(p *prog.Program) {
	m.loadGen++ // invalidates the native backend's compiled-code cache
	m.memSize = p.MemSize
	m.memSeed = p.MemSeed

	nb := len(p.Blocks)
	if cap(m.blocks) < nb {
		m.blocks = make([]blockMeta, nb)
	}
	m.blocks = m.blocks[:nb]
	if cap(m.blockTally) < nb {
		m.blockTally = make([][isa.NumClasses]uint32, nb)
	}
	m.blockTally = m.blockTally[:nb]

	stats := p.Stats
	if len(stats) != nb {
		// Programs without builder-provided stats (hand-assembled, decoded
		// from the wire) fall back to the canonical recomputation.
		m.statScratch = p.AppendBlockStats(m.statScratch[:0])
		stats = m.statScratch
	}

	if flat := p.Flat; len(flat) > 0 && len(p.Stats) == nb {
		// Arena fast path: reinterpret the validated Flat stream as the
		// decoded code. Stats carry the per-block lengths, so the metadata
		// rebuild never touches the instruction stream.
		m.code = unsafe.Slice((*flatInstr)(unsafe.Pointer(&flat[0])), len(flat))
		total := uint32(0)
		for bi := range m.blocks {
			meta := &m.blocks[bi]
			meta.start = total
			meta.count = stats[bi].Len
			total += stats[bi].Len
			m.blockTally[bi] = stats[bi].Tally
		}
		return
	}

	if cap(m.blockStart) < nb {
		m.blockStart = make([]uint32, nb)
	}
	blockStart := m.blockStart[:nb]
	total := 0
	for i := range p.Blocks {
		blockStart[i] = uint32(total)
		total += len(p.Blocks[i].Instrs)
	}

	if cap(m.ownCode) < total {
		m.ownCode = make([]flatInstr, total)
	}
	code := m.ownCode[:total]
	idx := 0
	for bi := range p.Blocks {
		instrs := p.Blocks[bi].Instrs
		meta := &m.blocks[bi]
		meta.start = blockStart[bi]
		meta.count = uint32(len(instrs))
		m.blockTally[bi] = stats[bi].Tally
		// Indexed stores into the presized slice rather than append: the
		// flatten loop runs once per hash (a fresh program per attempt), and
		// append's per-element write-back of the m.code header is measurable
		// at that rate.
		for i := range instrs {
			ins := &instrs[i]
			fi := flatInstr{
				op:    ins.Op,
				class: ins.Op.ClassOf(),
				dst:   ins.Dst,
				a:     ins.A,
				b:     ins.B,
				imm:   ins.Imm,
			}
			if ins.Op.IsControl() && ins.Op != isa.OpHalt {
				fi.target = blockStart[ins.Target]
				fi.aux = ins.Target
			}
			code[idx] = fi
			idx++
		}
	}
	m.ownCode = code
	m.code = code
}

// reset restores the architectural state for a fresh run: registers are
// zeroed (FP registers hold +0.0) and memory is restored to the pristine
// image derived from the program's memory seed. The memory buffer is
// reused across runs, and so — usually — is its content: only the words
// the previous run actually stored to are repaired (SplitMix64 is randomly
// addressable, see rng.SplitMix64At), which turns the per-run O(memSize)
// regeneration into O(stores). A seed/size change, an unbounded store
// burst (dirty-list overflow) or the first run fall back to regenerating
// the full image.
func (m *Machine) reset() {
	m.intRegs = [isa.NumIntRegs]uint64{}
	m.fpRegs = [isa.NumFPRegs]uint64{}
	m.vecRegs = [isa.NumVecRegs][isa.VecLanes]uint64{}

	// A PrepareMemory call that matches the loaded program's declaration
	// already left m.mem holding exactly the pristine image restoreMemory
	// would rebuild here, with all repair bookkeeping up to date — adopt it
	// and skip the O(memSize) work. The flag is consumed either way: a
	// prepared image is pristine for one run only.
	prepared := m.memPrepared
	m.memPrepared = false
	if prepared && m.memPreparedSeed == m.memSeed && m.memPreparedSize == m.memSize {
		return
	}
	m.restoreMemory(m.memSize, m.memSeed)
}

// restoreMemory restores the scratch memory to the pristine image declared
// by (size, seed), repairing dirty words when possible (see reset).
func (m *Machine) restoreMemory(size int, seed uint64) {
	if cap(m.mem) < size {
		m.mem = make([]byte, size)
	}
	m.mem = m.mem[:size]

	sameImage := m.memGood && m.memGoodSeed == seed && m.memGoodSize == size
	if sameImage && m.trackDirty && !m.dirtyOverflow {
		// Incremental repair: every word outside m.dirty still holds its
		// pristine value from the previous restore. The size must match
		// exactly — after a reload to a smaller memory, recorded dirty
		// addresses could lie beyond the new image, and a grow-back would
		// find the extension stale.
		for _, addr := range m.dirty {
			binary.LittleEndian.PutUint64(m.mem[addr:], rng.SplitMix64At(seed, uint64(addr)/8))
		}
		m.dirty = m.dirty[:0]
		return
	}

	rng.SplitMix64Fill(m.mem, seed)
	m.dirty = m.dirty[:0]
	m.dirtyOverflow = false
	// Arm dirty recording only from the second consecutive run of the
	// same image: machines whose programs change every run (the
	// production session) never record and never allocate the list.
	m.trackDirty = sameImage
	if m.trackDirty && m.dirty == nil {
		m.dirty = make([]uint32, 0, maxDirtyWords)
	}
	m.memGood = true
	m.memGoodSeed = seed
	m.memGoodSize = size
}

// PrepareMemory restores the scratch memory to the pristine image declared
// by (size, seed) ahead of the program that will declare it. If the next
// program loaded does declare exactly this image, its first run adopts the
// prepared memory and skips the O(memSize) restore inside reset; any
// mismatch (different seed or size, or an intervening run) falls back to
// the normal restore, so a stale or wrong preparation can never change an
// execution result — only waste the preparation.
//
// The point of the split is overlap: a hashing session knows a widget's
// memory declaration from the hash seed alone, before the widget is
// generated, so a helper goroutine can run PrepareMemory concurrently with
// generation and compilation. PrepareMemory touches only the memory-image
// state (mem, dirty-repair bookkeeping, the prepared marker) — callers
// must ensure the Machine is otherwise idle (no Run in flight), but may
// concurrently load and compile the next program, which touches disjoint
// machine state. The caller is responsible for synchronizing between
// PrepareMemory returning and Run/RunInto starting.
func (m *Machine) PrepareMemory(size int, seed uint64) {
	m.restoreMemory(size, seed)
	m.memPrepared = true
	m.memPreparedSeed = seed
	m.memPreparedSize = size
}

// Run executes the program to completion (halt or budget) and returns a
// freshly allocated result. It is a convenience wrapper over RunInto with
// a new Result: the allocation is the Result (and its output buffer), not
// the execution. Callers on a hot path must instead recycle a Result
// through RunInto — that is the zero-allocation path (once the Result's
// output buffer reaches its high-water capacity, execution performs no
// allocation; TestRunIntoZeroAlloc and TestInterpLoopZeroAlloc pin this).
func (m *Machine) Run(params Params, obs Observer) *Result {
	res := &Result{}
	m.RunInto(params, obs, res)
	return res
}

// RunInto executes the program to completion (halt or budget), writing
// the outcome into res. res is fully overwritten; its Output storage is
// reused, so a Result that is recycled across calls reaches a steady
// state where execution performs no allocation.
//
// Unobserved runs take the native backend when it is selected and the
// program compiles (see backend.go); everything else — observed runs,
// BackendInterp, platforms without a JIT — runs the interpreter. Both
// engines retire identical architectural state: digests depend neither on
// the engine nor on whether an observer was attached, which the
// cross-engine property and fuzz tests verify.
func (m *Machine) RunInto(params Params, obs Observer, res *Result) {
	params = params.withDefaults()
	m.reset()
	res.reset()
	if res.Output == nil {
		estSnaps := int(params.MaxInstructions/params.SnapshotInterval) + 2
		if estSnaps > 2048 {
			estSnaps = 2048
		}
		res.Output = make([]byte, 0, estSnaps*SnapshotSize)
	}
	m.lastStats = RunStats{Backend: BackendInterp}
	// tryRunNative declines — leaving res untouched — whenever the backend,
	// platform or program requires the interpreter.
	if obs == nil && m.tryRunNative(params, res) {
		m.lastStats.Backend = BackendNative
		return
	}
	m.runInterp(params, obs, res)
}

// execState carries a run's live accounting: the retired counter and
// snapshot countdown (which gate execution), branch statistics, and the
// per-class counts of instructions retired one at a time, plus where exact
// retirement reports to (the observer, if any, and the result that
// collects snapshots). Class counts of wholesale-accounted blocks are NOT
// accumulated here — they are reconstructed from m.execs when the run ends
// (see finishRun).
type execState struct {
	retired       uint64
	untilSnap     uint64
	snapInterval  uint64
	maxInstr      uint64
	condBranches  uint64
	takenBranches uint64
	classCounts   [isa.NumClasses]uint64

	obs Observer
	res *Result
}

// branch counts a retired conditional branch and passes its outcome
// through.
func (st *execState) branch(taken bool) bool {
	st.condBranches++
	if taken {
		st.takenBranches++
	}
	return taken
}

// startRun clears the per-block execution counters and returns the
// accounting state for a fresh run.
func (m *Machine) startRun(params Params, obs Observer, res *Result) execState {
	nb := len(m.blocks)
	if cap(m.execs) < nb {
		m.execs = make([]uint64, nb)
	}
	m.execs = m.execs[:nb]
	clear(m.execs)
	return execState{
		untilSnap:    params.SnapshotInterval,
		snapInterval: params.SnapshotInterval,
		maxInstr:     params.MaxInstructions,
		obs:          obs,
		res:          res,
	}
}

// finishRun is the epilogue both engines share: the terminal snapshot
// (always emitted, so even an empty program contributes output), then the
// deferred class accounting of wholesale-accounted blocks (execution
// counts x static per-block tallies) folded into the exact counts.
func (m *Machine) finishRun(st *execState, truncated bool) {
	res := st.res
	res.Output = m.appendSnapshot(res.Output, st.retired)
	res.Snapshots++
	res.Retired = st.retired
	res.Truncated = truncated
	res.CondBranches = st.condBranches
	res.TakenBranches = st.takenBranches
	classCounts := st.classCounts
	for b, n := range m.execs {
		if n == 0 {
			continue
		}
		t := &m.blockTally[b]
		for c := 1; c < isa.NumClasses; c++ {
			classCounts[c] += n * uint64(t[c])
		}
	}
	res.ClassCounts = classCounts
}

// runInterp is the interpreter: it runs the program from its entry block
// to a halt or the instruction budget.
func (m *Machine) runInterp(params Params, obs Observer, res *Result) {
	st := m.startRun(params, obs, res)
	m.finishRun(&st, m.runBlocks(0, false, &st) == truncated)
}

// runBlocks runs the program from block bi until a halt or the instruction
// budget ends the run, returning halted or truncated, or — with single
// set — until block bi is done, returning the block control transfers to
// next (or halted or truncated, if the run ended inside bi). The
// interpreter runs whole programs through it; the native backend runs
// every block it cannot account wholesale through it, with single set.
//
// Each block hoists one decision, exact. A block that fits inside both the
// budget and the current snapshot window, and is neither single nor
// observed, is accounted up front — retired and the snapshot countdown
// advance by its length and its execution counter is bumped — and then
// executes with no per-instruction bookkeeping. An exact block executes
// and retires one instruction at a time (see executeExact), so truncation
// points, snapshot contents and retired counts never depend on block
// shape.
func (m *Machine) runBlocks(bi uint32, single bool, st *execState) uint32 {
	for {
		if st.retired >= st.maxInstr {
			return truncated
		}
		meta := m.blocks[bi]
		block := m.code[meta.start : meta.start+meta.count]
		count := uint64(meta.count)
		var next uint32
		if single || st.obs != nil || count > st.maxInstr-st.retired || count >= st.untilSnap {
			next = m.executeExact(block, meta.start, st)
		} else {
			m.execs[bi]++
			st.retired += count
			st.untilSnap -= count
			next = m.execute(block, st)
		}
		switch next {
		case halted, truncated:
			return next
		case fallThrough:
			next = bi + 1
		}
		if single {
			return next
		}
		bi = next
	}
}

// Sentinels standing in for a block index (block indices are far smaller).
const (
	fallThrough = ^uint32(0)     // no control transfer was taken
	halted      = ^uint32(0) - 1 // a halt instruction retired
	truncated   = ^uint32(0) - 2 // the instruction budget ran out
)

// execute runs code — a basic block, or one instruction of one — and
// returns the block a taken branch or jump names, halted, or fallThrough.
// Control instructions only ever end a block, so whatever they decide is
// the last thing code does. This is the one Go definition of the ISA's
// semantics; the native backend's code generator (internal/jit) is the
// only other.
//
// Keep calls out of the loop: Go preserves no registers across a call, so
// even a rarely taken one spills the loop's live values on every
// iteration. That is why per-instruction retirement (executeExact) calls
// execute one instruction at a time rather than execute calling out.
func (m *Machine) execute(code []flatInstr, st *execState) uint32 {
	mem := m.mem
	intRegs := &m.intRegs
	fpRegs := &m.fpRegs
	vecRegs := &m.vecRegs
	mask := uint64(m.memSize - 1)
	next := fallThrough

	for i := range code {
		ins := &code[i]
		switch ins.op {
		case isa.OpAdd:
			intRegs[ins.dst] = intRegs[ins.a] + intRegs[ins.b]
		case isa.OpSub:
			intRegs[ins.dst] = intRegs[ins.a] - intRegs[ins.b]
		case isa.OpAnd:
			intRegs[ins.dst] = intRegs[ins.a] & intRegs[ins.b]
		case isa.OpOr:
			intRegs[ins.dst] = intRegs[ins.a] | intRegs[ins.b]
		case isa.OpXor:
			intRegs[ins.dst] = intRegs[ins.a] ^ intRegs[ins.b]
		case isa.OpShl:
			intRegs[ins.dst] = intRegs[ins.a] << (intRegs[ins.b] & 63)
		case isa.OpShr:
			intRegs[ins.dst] = intRegs[ins.a] >> (intRegs[ins.b] & 63)
		case isa.OpRor:
			k := intRegs[ins.b] & 63
			v := intRegs[ins.a]
			intRegs[ins.dst] = (v >> k) | (v << ((64 - k) & 63))
		case isa.OpCmpLT:
			if intRegs[ins.a] < intRegs[ins.b] {
				intRegs[ins.dst] = 1
			} else {
				intRegs[ins.dst] = 0
			}
		case isa.OpCmpEQ:
			if intRegs[ins.a] == intRegs[ins.b] {
				intRegs[ins.dst] = 1
			} else {
				intRegs[ins.dst] = 0
			}
		case isa.OpMov:
			intRegs[ins.dst] = intRegs[ins.a]
		case isa.OpMovI:
			intRegs[ins.dst] = uint64(ins.imm)
		case isa.OpAddI:
			intRegs[ins.dst] = intRegs[ins.a] + uint64(ins.imm)

		case isa.OpMul:
			intRegs[ins.dst] = intRegs[ins.a] * intRegs[ins.b]
		case isa.OpMulH:
			hi, _ := mul64(intRegs[ins.a], intRegs[ins.b])
			intRegs[ins.dst] = hi

		case isa.OpFAdd:
			fa := math.Float64frombits(fpRegs[ins.a])
			fb := math.Float64frombits(fpRegs[ins.b])
			fpRegs[ins.dst] = canonBits(fa + fb)
		case isa.OpFSub:
			fa := math.Float64frombits(fpRegs[ins.a])
			fb := math.Float64frombits(fpRegs[ins.b])
			fpRegs[ins.dst] = canonBits(fa - fb)
		case isa.OpFMul:
			fa := math.Float64frombits(fpRegs[ins.a])
			fb := math.Float64frombits(fpRegs[ins.b])
			fpRegs[ins.dst] = canonBits(fa * fb)
		case isa.OpFDiv:
			fa := math.Float64frombits(fpRegs[ins.a])
			fb := math.Float64frombits(fpRegs[ins.b])
			fpRegs[ins.dst] = canonBits(fa / fb)
		case isa.OpFSqrt:
			fa := math.Float64frombits(fpRegs[ins.a])
			fpRegs[ins.dst] = canonBits(math.Sqrt(math.Abs(fa)))
		case isa.OpFMov:
			fpRegs[ins.dst] = fpRegs[ins.a]
		case isa.OpFCvt:
			fpRegs[ins.dst] = canonBits(float64(int64(intRegs[ins.a])))
		case isa.OpFToI:
			intRegs[ins.dst] = clampToInt64(math.Float64frombits(fpRegs[ins.a]))

		case isa.OpLoad:
			addr := effAddr(ins, intRegs, mask)
			intRegs[ins.dst] = binary.LittleEndian.Uint64(mem[addr:])
		case isa.OpFLoad:
			addr := effAddr(ins, intRegs, mask)
			fpRegs[ins.dst] = canonFPBits(binary.LittleEndian.Uint64(mem[addr:]))
		case isa.OpStore:
			addr := effAddr(ins, intRegs, mask)
			m.markDirty(addr)
			binary.LittleEndian.PutUint64(mem[addr:], intRegs[ins.b])
		case isa.OpFStore:
			addr := effAddr(ins, intRegs, mask)
			m.markDirty(addr)
			binary.LittleEndian.PutUint64(mem[addr:], fpRegs[ins.b])

		case isa.OpBeq:
			if st.branch(intRegs[ins.a] == intRegs[ins.b]) {
				next = ins.aux
			}
		case isa.OpBne:
			if st.branch(intRegs[ins.a] != intRegs[ins.b]) {
				next = ins.aux
			}
		case isa.OpBlt:
			if st.branch(intRegs[ins.a] < intRegs[ins.b]) {
				next = ins.aux
			}
		case isa.OpBge:
			if st.branch(intRegs[ins.a] >= intRegs[ins.b]) {
				next = ins.aux
			}
		case isa.OpJmp:
			next = ins.aux
		case isa.OpHalt:
			next = halted

		case isa.OpVAdd:
			va, vb, vd := &vecRegs[ins.a], &vecRegs[ins.b], &vecRegs[ins.dst]
			for l := range vd {
				vd[l] = va[l] + vb[l]
			}
		case isa.OpVXor:
			va, vb, vd := &vecRegs[ins.a], &vecRegs[ins.b], &vecRegs[ins.dst]
			for l := range vd {
				vd[l] = va[l] ^ vb[l]
			}
		case isa.OpVMul:
			va, vb, vd := &vecRegs[ins.a], &vecRegs[ins.b], &vecRegs[ins.dst]
			for l := range vd {
				vd[l] = va[l] * vb[l]
			}
		case isa.OpVBcast:
			v := intRegs[ins.a]
			vd := &vecRegs[ins.dst]
			for l := range vd {
				vd[l] = v + uint64(l)
			}
		case isa.OpVRed:
			va := &vecRegs[ins.a]
			intRegs[ins.dst] = va[0] ^ va[1] ^ va[2] ^ va[3]
		}
	}
	return next
}

// executeExact runs block, whose first instruction has flat index pc, one
// instruction at a time, retiring each individually: it counts the
// instruction and its class, describes it to the observer, and advances
// the snapshot countdown — a snapshot falls due exactly when it reaches
// zero. It returns what execute does, or truncated if the budget runs out.
// A halt retires but does not advance the countdown, so a halt that lands
// on a snapshot boundary yields only the terminal snapshot; the digest
// definition depends on this.
func (m *Machine) executeExact(block []flatInstr, pc uint32, st *execState) uint32 {
	obs := st.obs
	next := fallThrough
	for i := range block {
		ins := &block[i]
		if obs != nil {
			m.describe(pc+uint32(i), ins)
		}
		next = m.execute(block[i:i+1], st)
		st.retired++
		st.classCounts[ins.class]++
		if obs != nil {
			m.ev.Taken = next < truncated
			obs.OnRetire(&m.ev)
		}
		if next == halted {
			return halted
		}
		if st.untilSnap--; st.untilSnap == 0 {
			st.res.Output = m.appendSnapshot(st.res.Output, st.retired)
			st.res.Snapshots++
			st.untilSnap = st.snapInterval
		}
		if st.retired >= st.maxInstr {
			return truncated
		}
	}
	return next
}

// effAddr is the effective address of a load or store: base register plus
// displacement, masked to the scratch memory and aligned down to 8 bytes.
func effAddr(ins *flatInstr, intRegs *[isa.NumIntRegs]uint64, mask uint64) uint64 {
	return (intRegs[ins.a] + uint64(ins.imm)) & mask &^ 7
}

// describe fills m.ev for instruction pc before it executes, so a load or
// store's address comes from its source registers; the branch outcome is
// filled in when it retires.
//
// The fields are stored one by one: assigning a composite literal builds it
// in a stack temporary of byte-wide stores and copies it with 16-byte loads,
// which stalls store forwarding on every observed instruction.
func (m *Machine) describe(pc uint32, ins *flatInstr) {
	ev := &m.ev
	ev.StaticID, ev.Op, ev.Class = pc, ins.op, ins.class
	ev.Dst, ev.A, ev.B = ins.dst, ins.a, ins.b
	ev.IsMem = ins.class == isa.ClassLoad || ins.class == isa.ClassStore
	ev.Addr = 0
	if ev.IsMem {
		ev.Addr = effAddr(ins, &m.intRegs, uint64(m.memSize-1))
	}
}

// appendSnapshot serializes the architectural register state.
func (m *Machine) appendSnapshot(out []byte, retired uint64) []byte {
	var buf [SnapshotSize]byte
	off := 0
	for _, r := range m.intRegs {
		binary.LittleEndian.PutUint64(buf[off:], r)
		off += 8
	}
	for _, r := range m.fpRegs {
		binary.LittleEndian.PutUint64(buf[off:], r)
		off += 8
	}
	for i := range m.vecRegs {
		v := &m.vecRegs[i]
		binary.LittleEndian.PutUint64(buf[off:], v[0]^v[1]^v[2]^v[3])
		off += 8
	}
	binary.LittleEndian.PutUint64(buf[off:], retired)
	return append(out, buf[:]...)
}

// Run is a convenience wrapper: validate, build a machine, execute.
func Run(p *prog.Program, params Params, obs Observer) (*Result, error) {
	m, err := New(p)
	if err != nil {
		return nil, err
	}
	return m.Run(params, obs), nil
}

// canonBits converts an FP result to register bits, canonicalizing NaN so
// that only one NaN bit pattern is ever architecturally visible.
func canonBits(f float64) uint64 {
	if f != f {
		return canonicalNaN
	}
	return math.Float64bits(f)
}

// canonFPBits canonicalizes raw bits loaded from memory into an FP
// register (memory contents are arbitrary and may encode any NaN).
func canonFPBits(bits uint64) uint64 {
	f := math.Float64frombits(bits)
	if f != f {
		return canonicalNaN
	}
	return bits
}

// clampToInt64 converts a float64 to int64 (as uint64 bits) with
// fully-defined saturation semantics: NaN -> 0, overflow clamps.
// Go's float-to-int conversion is implementation-defined out of range, so
// the VM defines it explicitly.
func clampToInt64(f float64) uint64 {
	switch {
	case f != f:
		return 0
	case f >= math.MaxInt64:
		return uint64(math.MaxInt64)
	case f <= math.MinInt64:
		return 1 << 63
	default:
		return uint64(int64(f))
	}
}

// mul64 returns the full 128-bit product of a and b. The full product is
// exact, so the hardware multiply via math/bits is bit-identical to the
// former long-multiplication routine on every platform (the JIT backend
// emits MULX/MUL for the same opcode, pinned by the cross-backend digest
// tests).
func mul64(a, b uint64) (hi, lo uint64) {
	return bits.Mul64(a, b)
}
