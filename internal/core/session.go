package core

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"hashcore/internal/asm"
	"hashcore/internal/perfprox"
	"hashcore/internal/vm"
)

// Session is a reusable execution context for one HashCore function: it
// owns the generator scratch (PRNGs, budgets, program builder), the VM
// (decoded code and scratch memory image), the execution result (snapshot
// output buffer) and the gate concatenation buffer. After a few warm-up
// hashes every buffer has reached its high-water capacity and further
// Hash calls allocate nothing.
//
// A Session is bound to the Func that created it and is NOT safe for
// concurrent use; Func.Hash maintains a sync.Pool of sessions so ordinary
// callers never touch this type. Hold a Session directly when a single
// goroutine hashes in a tight loop (miner workers do this) and the pool
// round-trip is unwanted.
//
// Each session owns one helper goroutine that restores the VM's
// scratch-memory image concurrently with widget generation and
// compilation (the memory declaration is derivable from the hash seed
// alone — see perfprox.Generator.MemoryPlan — so the fill needs nothing
// from the not-yet-generated program). Close releases the helper;
// sessions that are dropped without Close (a sync.Pool eviction, a
// forgotten miner worker) release it through a finalizer, so the helper
// can never leak past its session's lifetime — but explicit Close is
// preferred wherever a session's end is knowable (daemons do this on
// shutdown). A closed session must not be used again.
//
// Digests computed through a Session are bit-identical to the
// allocate-per-call pipeline — the overlapped fill produces the same
// pristine image reset would build, and a mismatched preparation is
// discarded, never adopted — and the golden-vector tests lock this in.
type Session struct {
	f   *Func
	gen perfprox.Scratch
	m   *vm.Machine
	res vm.Result
	buf []byte // seed || widget-output gate message

	// The fill helper: runWidget posts the next widget's memory
	// declaration in fill and wakes the helper. Whichever side claims
	// the posted fill first runs it, so the session goroutine never
	// parks at the join (see joinFill). fillWake is nil when the helper
	// is disabled (the single-threaded reference pipeline the
	// equivalence tests run).
	fill      *fillSlot
	fillWake  chan struct{}
	closeOnce sync.Once

	// execMark is the instant the timed execution phase began (set by
	// loadWidget when instrumentation is on; runWidget closes the
	// interval after the run).
	execMark time.Time
}

// fillSlot is the one fill a session has posted: the scratch-memory
// image to prepare and who runs it. It lives apart from the Session so
// the helper can hold it without keeping the session reachable.
type fillSlot struct {
	size  int
	seed  uint64
	state atomic.Uint32
}

// fillSlot.state values.
const (
	fillDone    uint32 = iota // run (or none posted yet)
	fillPending               // posted, claimed by neither side
	fillRunning               // the helper is running it
)

// NewSession returns a fresh execution context for f.
func (f *Func) NewSession() *Session {
	s := &Session{
		f:        f,
		m:        &vm.Machine{},
		fill:     &fillSlot{},
		fillWake: make(chan struct{}, 1),
	}
	s.m.SetBackend(f.backend)
	// The helper captures the machine, the fill slot and the wake
	// channel, NOT the session: a session unreferenced by everything but
	// its own helper must become garbage so the finalizer can release
	// that helper.
	m, fill, wake := s.m, s.fill, s.fillWake
	go func() {
		for range wake {
			if fill.state.CompareAndSwap(fillPending, fillRunning) {
				m.PrepareMemory(fill.size, fill.seed)
				fill.state.Store(fillDone)
			}
		}
	}()
	runtime.SetFinalizer(s, (*Session).Close)
	return s
}

// Close releases the session's fill helper goroutine. It is idempotent
// and safe to call on a session in any quiescent state (never concurrently
// with a Hash in flight). Pooled sessions need no explicit Close — the
// pool's owner Func never closes them, and a finalizer covers sessions the
// pool drops — but long-lived direct holders (miner workers, daemons)
// should Close when done. A closed session must not be used again.
func (s *Session) Close() {
	s.closeOnce.Do(func() {
		runtime.SetFinalizer(s, nil)
		if s.fillWake != nil {
			close(s.fillWake)
		}
	})
}

// disableFill turns the session into the single-threaded reference
// pipeline: the fill helper is released and every subsequent reset
// restores scratch memory inline, exactly as the pre-overlap pipeline
// did. Test hook (the overlapped-vs-reference equivalence tests run one
// of each); not part of the public surface.
func (s *Session) disableFill() {
	s.Close()
	s.fillWake = nil
}

// Hash computes the HashCore digest of input using the session's reusable
// state. It is equivalent to (but does not allocate like) Func.Hash.
func (s *Session) Hash(input []byte) (Digest, error) {
	return s.hash(input, nil, nil)
}

// PhaseTimings accumulates the wall-clock split of the widget pipeline
// across HashTimed calls: generation (hash seed -> validated program),
// execution (VM load + run) and the retired widget instructions. The gate
// applications are the (small) remainder against total hash time. Used by
// the benchmark harness to attribute performance movement to the right
// half of the pipeline.
type PhaseTimings struct {
	// GenNs is nanoseconds spent generating widget programs (for the
	// source pipeline: rendering and re-assembling them too).
	GenNs int64
	// ExecNs is nanoseconds spent loading programs into the VM and
	// executing them.
	ExecNs int64
	// CompileNs is nanoseconds spent compiling widgets to native code
	// (a subset of ExecNs; zero when the interpreter backend runs).
	CompileNs int64
	// FillNs is nanoseconds the pipeline spent at the join with the
	// concurrent scratch-memory preparation (a subset of ExecNs): waiting
	// out the helper's fill, or running it inline when the helper had
	// not started it. Near zero when the fill helper finishes under the
	// generation+compile shadow; approaching the full fill cost when it
	// does not (e.g. a single-CPU host, where the work serializes anyway).
	FillNs int64
	// LoadNs is nanoseconds spent loading generated programs into the VM
	// (a subset of ExecNs): adopting the builder arena's pre-decoded
	// stream plus rebuilding the per-block metadata.
	LoadNs int64
	// Retired is the total number of retired widget instructions.
	Retired uint64
	// Hashes is the number of HashTimed calls accumulated.
	Hashes uint64
}

// HashTimed is Hash with per-phase instrumentation: the generation and
// execution wall time and retired-instruction count of every widget are
// accumulated into t. Digests are identical to Hash.
func (s *Session) HashTimed(input []byte, t *PhaseTimings) (Digest, error) {
	t.Hashes++
	return s.hash(input, nil, t)
}

// hash runs the full pipeline: s = G(x), then widgets chained through the
// gate. obs may be nil (the VM then takes its specialized unobserved
// loop); t may be nil (no timing instrumentation — unless the Func has
// telemetry enabled, in which case a stack-local PhaseTimings keeps the
// per-phase clocks running so the histograms can observe the split).
func (s *Session) hash(input []byte, obs vm.Observer, t *PhaseTimings) (Digest, error) {
	if met := s.f.met; met != nil {
		var local PhaseTimings
		if t == nil {
			t = &local
		}
		start := time.Now()
		genNs, execNs, retired := t.GenNs, t.ExecNs, t.Retired
		d, err := s.hashInner(input, obs, t)
		if err == nil {
			met.observeHash(start, t, genNs, execNs, retired, s.m.LastRunStats().Backend)
		}
		return d, err
	}
	return s.hashInner(input, obs, t)
}

func (s *Session) hashInner(input []byte, obs vm.Observer, t *PhaseTimings) (Digest, error) {
	f := s.f
	seed := f.gate.Sum(input)
	for i := 0; i < f.widgets; i++ {
		if err := s.runWidget(perfprox.Seed(seed), obs, t); err != nil {
			return Digest{}, err
		}
		s.buf = append(append(s.buf[:0], seed[:]...), s.res.Output...)
		seed = f.gate.Sum(s.buf)
	}
	return seed, nil
}

// runWidget executes W(s) into s.res as an overlapped pipeline: the fill
// helper restores the VM's scratch-memory image (known from the seed
// alone) while this goroutine generates the widget (optionally
// round-tripping through source), loads it into the session VM and
// compiles it; the two halves join right before the run, which then finds
// memory already pristine. The phases touch disjoint machine state (image
// vs. code), and a preparation that does not exactly match the loaded
// program's declaration is discarded by the VM, so digests cannot depend
// on the overlap.
func (s *Session) runWidget(seed perfprox.Seed, obs vm.Observer, t *PhaseTimings) error {
	f := s.f
	overlap := s.fillWake != nil
	if overlap {
		s.fill.size, s.fill.seed = f.gen.MemoryPlan(seed)
		s.fill.state.Store(fillPending)
		select {
		case s.fillWake <- struct{}{}:
		default: // a wake-up is already queued
		}
	}
	err := s.loadWidget(seed, obs, t)
	if overlap {
		// Always settle the fill — an error path that left it pending
		// could let the helper write the image under a later widget.
		var fillStart time.Time
		if t != nil {
			fillStart = time.Now()
		}
		s.joinFill()
		if t != nil {
			t.FillNs += time.Since(fillStart).Nanoseconds()
		}
	}
	if err != nil {
		return err
	}
	if met := f.met; met != nil {
		instrs, _ := s.m.CodeSize()
		met.archInstrs.Add(uint64(instrs))
	}
	s.m.RunInto(f.vparams, obs, &s.res)
	if t != nil || f.met != nil || f.journal != nil {
		st := s.m.LastRunStats()
		if t != nil {
			t.ExecNs += time.Since(s.execMark).Nanoseconds()
			t.CompileNs += st.CompileNs
			t.Retired += s.res.Retired
		}
		if met := f.met; met != nil && st.Compiled {
			met.jitCompileSeconds.Observe(float64(st.CompileNs) / 1e9)
		}
		if st.FallbackErr != nil {
			f.noteFallback(st.FallbackErr)
		}
	}
	return nil
}

// joinSpins bounds how many times joinFill polls a running fill before
// it starts yielding the P between polls: a few microseconds.
const joinSpins = 4096

// joinFill returns once the posted fill has been run. If the helper has
// not claimed it (it may not have been scheduled at all while every P
// was busy), this goroutine claims it and runs it inline; otherwise the
// helper is running it, and the wait is its tail. The join never parks:
// a parked receive takes a sudog from the runtime's per-P cache, and the
// session's two goroutines park and wake on different Ps, so now and
// then a P finds its cache empty and the runtime allocates one — a stray
// malloc in a hash path that otherwise allocates nothing.
func (s *Session) joinFill() {
	if s.fill.state.CompareAndSwap(fillPending, fillDone) {
		s.m.PrepareMemory(s.fill.size, s.fill.seed)
		return
	}
	// The helper is mid-fill on another thread: poll for the tail,
	// yielding the P only if it drags on (the helper was descheduled).
	for i := 0; s.fill.state.Load() != fillDone; i++ {
		if i >= joinSpins {
			runtime.Gosched()
		}
	}
}

// loadWidget runs the generate/load/compile half of the widget pipeline —
// everything that can proceed while the fill helper restores scratch
// memory. On return the session VM holds the widget for seed, compiled
// when a native backend will run it.
func (s *Session) loadWidget(seed perfprox.Seed, obs vm.Observer, t *PhaseTimings) error {
	f := s.f
	var mark time.Time
	if t != nil {
		mark = time.Now()
	}
	if f.useSrc {
		// The paper-faithful textual pipeline allocates by design (it
		// renders and re-parses source); sessions only reuse the VM here.
		src, err := f.gen.GenerateSource(seed)
		if err != nil {
			return err
		}
		widget, err := asm.Assemble(src)
		if err != nil {
			return fmt.Errorf("core: compiling generated source: %w", err)
		}
		if t != nil {
			now := time.Now()
			t.GenNs += now.Sub(mark).Nanoseconds()
			mark = now
		}
		s.execMark = mark
		if err := s.m.Load(widget); err != nil {
			return err
		}
	} else {
		widget, err := f.gen.GenerateInto(seed, &s.gen)
		if err != nil {
			return err
		}
		if t != nil {
			now := time.Now()
			t.GenNs += now.Sub(mark).Nanoseconds()
			mark = now
		}
		s.execMark = mark
		// The builder validated the program during BuildInto; skip the
		// VM's second structural pass.
		s.m.LoadTrusted(widget)
	}
	if t != nil {
		t.LoadNs += time.Since(s.execMark).Nanoseconds()
	}
	// Compile now rather than lazily inside the first run, so compilation
	// happens under the fill helper's shadow. The compile is cached
	// against the program load; the run's own stats then report zero
	// compile time, so the eager compile's cost (and its telemetry
	// observation) is accounted here instead. A compile failure is left
	// for the run to discover — it falls back to the interpreter and
	// reports the cached error as FallbackErr, same as the lazy path.
	if obs == nil && s.m.BackendSelected() == vm.BackendNative {
		_, _ = s.m.CompileNative()
		if st := s.m.LastRunStats(); st.Compiled {
			if t != nil {
				t.CompileNs += st.CompileNs
			}
			if met := f.met; met != nil {
				met.jitCompileSeconds.Observe(float64(st.CompileNs) / 1e9)
			}
		}
	}
	return nil
}
