package main

import (
	"bytes"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"runtime"
	"sync"
	"time"

	"hashcore"
	"hashcore/internal/gate"
	"hashcore/internal/perfprox"
	"hashcore/internal/vm"
	"hashcore/internal/workload"
)

// goldenABC is the locked leela digest of "abc" (golden_test.go); set-up
// checks it before anything is timed.
var goldenABC = "5e1b1d3982d3cd7c62ed235f77441bd2725f59f93017dfd77c150e3a8e07aa12"

const (
	setupReps   = 5    // set-ups per run; setup_s is their median
	warmHashes  = 48   // per session, past the allocation high-water marks
	checkSample = 64   // timed nonces recomputed by a fresh hasher
	maxHashRate = 4000 // per session; sizes the window's buffers before the clock starts
)

// miner is one mine-workload set-up: a hasher and one warm session per
// core, each hashing its own seed-derived input.
type miner struct {
	h        *hashcore.Hasher
	sessions []*hashcore.Session
	inputs   [][]byte // per session: 32-byte prefix || nonce_le64
	starts   []uint64 // per session: first timed nonce
	golden   tally
}

func (mn *miner) close() {
	for _, s := range mn.sessions {
		s.Close()
	}
}

// setupMiner builds the hasher, checks the golden digest and warms one
// session per core.
func setupMiner(e *env) (*miner, error) {
	h, err := hashcore.New()
	if err != nil {
		return nil, err
	}
	mn := &miner{h: h}
	d, err := h.Hash([]byte("abc"))
	mn.golden.attempted = 1
	if err != nil || hex.EncodeToString(d[:]) != goldenABC {
		mn.golden.failed = 1
		e.logf("mine: golden digest of \"abc\" is %x, want %s (err %v)", d, goldenABC, err)
	}
	r := e.rng("mine-inputs")
	for i := 0; i < e.cores; i++ {
		in := make([]byte, 40)
		for j := 0; j < 32; j += 8 {
			binary.LittleEndian.PutUint64(in[j:], r.Uint64())
		}
		mn.inputs = append(mn.inputs, in)
		mn.starts = append(mn.starts, r.Uint64()>>1)
		mn.sessions = append(mn.sessions, h.NewSession())
	}
	err = mn.parallel(func(i int, s *hashcore.Session, in []byte) error {
		for k := 0; k < warmHashes; k++ {
			binary.LittleEndian.PutUint64(in[32:], mn.starts[i]-uint64(k)-1)
			if _, err := s.Hash(in); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		mn.close()
		return nil, err
	}
	return mn, nil
}

// parallel runs fn once per session, concurrently, and returns the first
// error.
func (mn *miner) parallel(fn func(i int, s *hashcore.Session, in []byte) error) error {
	errs := make([]error, len(mn.sessions))
	var wg sync.WaitGroup
	for i, s := range mn.sessions {
		wg.Add(1)
		go func() {
			defer wg.Done()
			errs[i] = fn(i, s, mn.inputs[i])
		}()
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// setupRepeated sets up setupReps times, keeping the last set-up and
// returning the median set-up time.
func setupRepeated[T any](setup func() (T, error), teardown func(T)) (T, time.Duration, error) {
	var times []time.Duration
	var v T
	for i := 0; i < setupReps; i++ {
		start := time.Now()
		x, err := setup()
		if err != nil {
			return v, 0, err
		}
		times = append(times, time.Since(start))
		if i < setupReps-1 {
			teardown(x)
		}
		v = x
	}
	return v, medianDuration(times), nil
}

// mineWindow is one closed-loop measurement: per-session latencies and
// digests of consecutive nonces from each session's start.
type mineWindow struct {
	lat     [][]int64
	digests [][][32]byte
	wall    time.Duration
}

func (w *mineWindow) hashes() int {
	n := 0
	for _, l := range w.lat {
		n += len(l)
	}
	return n
}

// measure hashes back to back on every session until the window ends.
// Buffers are sized before the clock starts so the loop allocates
// nothing of its own.
func (mn *miner) measure(window time.Duration) (*mineWindow, error) {
	n := len(mn.sessions)
	capacity := int(window.Seconds()*maxHashRate) + 16
	w := &mineWindow{lat: make([][]int64, n), digests: make([][][32]byte, n)}
	for i := range w.lat {
		w.lat[i] = make([]int64, 0, capacity)
		w.digests[i] = make([][32]byte, 0, capacity)
	}
	start := time.Now()
	deadline := start.Add(window)
	err := mn.parallel(func(i int, s *hashcore.Session, in []byte) error {
		nonce := mn.starts[i]
		for {
			binary.LittleEndian.PutUint64(in[32:], nonce)
			t0 := time.Now()
			d, err := s.Hash(in)
			t1 := time.Now()
			if err != nil {
				return err
			}
			w.lat[i] = append(w.lat[i], int64(t1.Sub(t0)))
			w.digests[i] = append(w.digests[i], d)
			nonce++
			if !t1.Before(deadline) {
				return nil
			}
		}
	})
	w.wall = time.Since(start)
	return w, err
}

// check recomputes a seeded sample of the window's digests with a fresh
// hasher.
func (mn *miner) check(e *env, w *mineWindow) (tally, error) {
	h, err := hashcore.New()
	if err != nil {
		return tally{}, err
	}
	r := e.rng("mine-check")
	t := tally{attempted: int64(w.hashes())}
	in := make([]byte, 40)
	for k := 0; k < checkSample; k++ {
		i := r.IntN(len(w.digests))
		if len(w.digests[i]) == 0 {
			continue
		}
		j := r.IntN(len(w.digests[i]))
		copy(in, mn.inputs[i])
		binary.LittleEndian.PutUint64(in[32:], mn.starts[i]+uint64(j))
		d, err := h.Hash(in)
		if err != nil || d != w.digests[i][j] {
			t.failed++
			e.logf("mine: session %d nonce %d digest %x, fresh hasher says %x (err %v)",
				i, mn.starts[i]+uint64(j), w.digests[i][j], d, err)
		}
	}
	return t, nil
}

func runMine(e *env, window time.Duration) (endToEnd, error) {
	mn, setup, err := setupRepeated(func() (*miner, error) { return setupMiner(e) }, (*miner).close)
	if err != nil {
		return endToEnd{}, err
	}
	defer mn.close()
	w, err := mn.measure(window)
	if err != nil {
		return endToEnd{}, err
	}
	t, err := mn.check(e, w)
	if err != nil {
		return endToEnd{}, err
	}
	t.add(mn.golden)
	var all []int64
	for _, l := range w.lat {
		all = append(all, l...)
	}
	r := endToEnd{
		tally:   t,
		setup:   setup,
		opsPerS: float64(w.hashes()) / w.wall.Seconds(),
		p50:     time.Duration(percentile(all, 50)),
		p90:     time.Duration(percentile(all, 90)),
	}
	e.logf("mine: %d sessions, %d hashes in %.3fs: %.1f hashes/s, p50 %.3f ms, p90 %.3f ms, setup %.4fs",
		len(mn.sessions), w.hashes(), w.wall.Seconds(), r.opsPerS, ms(float64(r.p50)), ms(float64(r.p90)), setup.Seconds())
	return r, nil
}

// hashParts accumulates the traced hash pipeline, one field per layer.
type hashParts struct {
	gate, gen, load, compile, fill, run, interp, total int64
	retired, instrs                                    uint64
	n                                                  int64
}

func (p *hashParts) add(o hashParts) {
	p.gate += o.gate
	p.gen += o.gen
	p.load += o.load
	p.compile += o.compile
	p.fill += o.fill
	p.run += o.run
	p.interp += o.interp
	p.total += o.total
	p.retired += o.retired
	p.instrs += o.instrs
	p.n += o.n
}

// composer evaluates HashCore from the layers' public calls, timing each:
// gate, generate, load, compile, fill (inline), run, gate. A second
// machine runs the same widget on the interpreter.
type composer struct {
	g         gate.SHA256
	gen       *perfprox.Generator
	sc        perfprox.Scratch
	m, interp vm.Machine
	res, ires vm.Result
	buf       []byte
	parts     hashParts
}

func newComposer() (*composer, error) {
	w, err := workload.ByName("leela")
	if err != nil {
		return nil, err
	}
	gen, err := perfprox.NewGenerator(w.Profile, perfprox.Params{})
	if err != nil {
		return nil, err
	}
	c := &composer{gen: gen}
	b, _ := envBackend()
	c.m.SetBackend(b)
	c.interp.SetBackend(vm.BackendInterp)
	return c, nil
}

// hash returns the digest of in, adding each layer's time to c.parts.
func (c *composer) hash(in []byte) ([32]byte, error) {
	t0 := time.Now()
	seed := c.g.Sum(in)
	t1 := time.Now()
	prog, err := c.gen.GenerateInto(perfprox.Seed(seed), &c.sc)
	if err != nil {
		return [32]byte{}, err
	}
	t2 := time.Now()
	c.m.LoadTrusted(prog)
	t3 := time.Now()
	if c.m.BackendSelected() == vm.BackendNative {
		if _, err := c.m.CompileNative(); err != nil {
			return [32]byte{}, err
		}
	}
	t4 := time.Now()
	size, memSeed := c.gen.MemoryPlan(perfprox.Seed(seed))
	c.m.PrepareMemory(size, memSeed)
	t5 := time.Now()
	c.m.RunInto(vm.Params{}, nil, &c.res)
	t6 := time.Now()
	c.buf = append(append(c.buf[:0], seed[:]...), c.res.Output...)
	d := c.g.Sum(c.buf)
	t7 := time.Now()

	c.interp.LoadTrusted(prog)
	c.interp.PrepareMemory(size, memSeed)
	t8 := time.Now()
	c.interp.RunInto(vm.Params{}, nil, &c.ires)
	t9 := time.Now()
	if !bytes.Equal(c.ires.Output, c.res.Output) || c.ires.Retired != c.res.Retired {
		return d, fmt.Errorf("interpreter and %s backend disagree on the widget of seed %x", c.m.LastRunStats().Backend, seed)
	}
	arch, _ := c.interp.CodeSize()

	p := &c.parts
	p.gate += int64(t1.Sub(t0) + t7.Sub(t6))
	p.gen += int64(t2.Sub(t1))
	p.load += int64(t3.Sub(t2))
	p.compile += int64(t4.Sub(t3))
	p.fill += int64(t5.Sub(t4))
	p.run += int64(t6.Sub(t5))
	p.total += int64(t7.Sub(t0))
	p.interp += int64(t9.Sub(t8))
	p.retired += c.res.Retired
	p.instrs += uint64(arch)
	p.n++
	return d, nil
}

// traceMine measures an untraced half window (per-hash time and
// allocations), then a traced half window of composed hashes, each
// checked against Session.Hash on the same input.
func traceMine(e *env, window time.Duration) (map[string]metric, tally, error) {
	mn, err := setupMiner(e)
	if err != nil {
		return nil, tally{}, err
	}
	defer mn.close()
	half := window / 2

	runtime.GC()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	w, err := mn.measure(half)
	runtime.ReadMemStats(&after)
	if err != nil {
		return nil, tally{}, err
	}
	t, err := mn.check(e, w)
	if err != nil {
		return nil, tally{}, err
	}
	t.add(mn.golden)
	var all []int64
	for _, l := range w.lat {
		all = append(all, l...)
	}
	untraced := mean(all)
	allocs := float64(after.Mallocs-before.Mallocs) / float64(w.hashes())

	comps := make([]*composer, len(mn.sessions))
	for i := range comps {
		if comps[i], err = newComposer(); err != nil {
			return nil, tally{}, err
		}
	}
	deadline := time.Now().Add(half)
	err = mn.parallel(func(i int, s *hashcore.Session, in []byte) error {
		c := comps[i]
		nonce := mn.starts[i] + uint64(len(w.lat[i]))
		for time.Now().Before(deadline) {
			binary.LittleEndian.PutUint64(in[32:], nonce)
			got, err := c.hash(in)
			if err != nil {
				return err
			}
			want, err := s.Hash(in)
			if err != nil {
				return err
			}
			if got != want {
				return fmt.Errorf("composed hash %x differs from Session.Hash %x at nonce %d", got, want, nonce)
			}
			nonce++
		}
		return nil
	})
	if err != nil {
		return nil, tally{}, fmt.Errorf("aborting traced mine run: %w", err)
	}
	var p hashParts
	for _, c := range comps {
		p.add(c.parts)
	}
	t.attempted += p.n
	per := func(v int64) float64 { return float64(v) / float64(p.n) }
	sum := per(p.gate) + per(p.gen) + per(p.load) + per(p.compile) + per(p.fill) + per(p.run)
	m := map[string]metric{
		"gate.sum_ns":                  {per(p.gate), "ns"},
		"perfprox.gen_ns":              {per(p.gen), "ns"},
		"vm.load_ns":                   {per(p.load), "ns"},
		"jit.compile_ns":               {per(p.compile), "ns"},
		"vm.fill_ns":                   {per(p.fill), "ns"},
		"vm.run_ns":                    {per(p.run), "ns"},
		"vm.run_interp_ns":             {per(p.interp), "ns"},
		"core.residual_ns":             {untraced - sum, "ns"},
		"vm.retired_per_hash":          {float64(p.retired) / float64(p.n), "count"},
		"vm.instrs_per_widget":         {float64(p.instrs) / float64(p.n), "count"},
		"core.allocs_per_hash":         {allocs, "count"},
		"bench.mine_trace_overhead_ns": {per(p.total) - untraced, "ns"},
	}
	e.logf("mine traced: %d composed hashes matched Session.Hash; untraced %.0f ns/hash = parts %.0f + residual %.0f",
		p.n, untraced, sum, untraced-sum)
	return m, t, nil
}
