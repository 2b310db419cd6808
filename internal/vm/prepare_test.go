package vm

import (
	"bytes"
	"testing"

	"hashcore/internal/isa"
	"hashcore/internal/prog"
	"hashcore/internal/rng"
)

// storeLoop builds a program that stores count words sequentially (8
// bytes apart, wrapping within memSize) and then halts — enough dynamic
// stores to arm, exercise and (for count > maxDirtyWords) overflow the
// dirty-word tracker.
func storeLoop(t *testing.T, memSize, count int) *prog.Program {
	t.Helper()
	b := prog.NewBuilder(memSize, 99)
	head := b.NewBlock()
	_ = head
	b.MovI(0, int64(count)) // r0: trip counter
	b.MovI(1, 0)            // r1: address cursor
	b.MovI(2, 0)            // r2: zero
	b.MovI(3, -1)           // r3: value stored everywhere
	body := b.NewBlock()
	b.Store(1, 3, 0)
	b.AddI(1, 1, 8)
	b.AddI(0, 0, -1)
	b.Branch(isa.OpBne, 0, 2, body)
	exit := b.NewBlock()
	b.SetBlock(exit)
	b.Halt()
	p, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// pristine returns the scratch-memory image (size, seed) declares.
func pristine(size int, seed uint64) []byte {
	img := make([]byte, size)
	rng.SplitMix64Fill(img, seed)
	return img
}

// runDigest executes p on m and returns the output bytes.
func runDigest(m *Machine, p *prog.Program) []byte {
	m.LoadTrusted(p)
	res := m.Run(Params{}, nil)
	return append([]byte(nil), res.Output...)
}

// TestPrepareMemoryAdopted: a preparation matching the program's
// declaration must yield the identical run output as the plain path, and
// the prepared image must actually be adopted (memory already pristine
// when reset runs).
func TestPrepareMemoryAdopted(t *testing.T) {
	p := storeLoop(t, prog.MinMemSize, 64)

	plain := &Machine{}
	want := runDigest(plain, p)

	prepared := &Machine{}
	prepared.PrepareMemory(p.MemSize, p.MemSeed)
	if !prepared.memPrepared {
		t.Fatal("PrepareMemory did not mark the image prepared")
	}
	got := runDigest(prepared, p)
	if !bytes.Equal(got, want) {
		t.Fatal("prepared run output differs from plain run")
	}
	if prepared.memPrepared {
		t.Fatal("reset did not consume the prepared marker")
	}
}

// TestPrepareMemoryMismatchFallsBack: a preparation for the wrong seed or
// size must be discarded — outputs stay identical to the plain path.
func TestPrepareMemoryMismatchFallsBack(t *testing.T) {
	p := storeLoop(t, prog.MinMemSize, 64)
	plain := &Machine{}
	want := runDigest(plain, p)

	cases := []struct {
		name string
		size int
		seed uint64
	}{
		{"wrong-seed", p.MemSize, p.MemSeed + 1},
		{"wrong-size", p.MemSize * 2, p.MemSeed},
		{"both-wrong", p.MemSize * 2, p.MemSeed ^ 0xdead},
	}
	for _, tc := range cases {
		m := &Machine{}
		m.PrepareMemory(tc.size, tc.seed)
		if got := runDigest(m, p); !bytes.Equal(got, want) {
			t.Fatalf("%s: run output differs from plain run", tc.name)
		}
	}
}

// TestPrepareMemoryRepeatedRepairs: repeated prepare/run cycles of the
// same image walk the dirty-word repair path (tracking arms on the
// second consecutive restore of one image); every preparation must leave
// the pristine image and outputs must stay identical to fresh-machine
// runs throughout. (storeLoop's output never reads memory, so the image
// itself is what the repair is checked against.)
func TestPrepareMemoryRepeatedRepairs(t *testing.T) {
	p := storeLoop(t, prog.MinMemSize, 200)
	fresh := &Machine{}
	fresh.SetBackend(BackendInterp)
	want := runDigest(fresh, p)

	wantMem := pristine(p.MemSize, p.MemSeed)
	m := &Machine{}
	m.SetBackend(BackendInterp) // native runs mark memory unusable; repair needs the interpreter
	for i := 0; i < 4; i++ {
		m.PrepareMemory(p.MemSize, p.MemSeed)
		if !bytes.Equal(m.mem, wantMem) {
			t.Fatalf("cycle %d: prepared image is not pristine", i)
		}
		if got := runDigest(m, p); !bytes.Equal(got, want) {
			t.Fatalf("cycle %d: output diverged", i)
		}
	}
	if !m.trackDirty {
		t.Fatal("dirty tracking never armed across repeated same-image prepares")
	}
}

// TestPrepareMemoryDirtyOverflow: a run storing more than maxDirtyWords
// words overflows the tracker; the following prepare must fall back to a
// full regeneration and still produce pristine memory.
func TestPrepareMemoryDirtyOverflow(t *testing.T) {
	const memSize = 1 << 19 // room for > maxDirtyWords distinct words
	p := storeLoop(t, memSize, maxDirtyWords+512)
	fresh := &Machine{}
	fresh.SetBackend(BackendInterp)
	want := runDigest(fresh, p)

	m := &Machine{}
	m.SetBackend(BackendInterp)
	for i := 0; i < 3; i++ {
		m.PrepareMemory(p.MemSize, p.MemSeed)
		if got := runDigest(m, p); !bytes.Equal(got, want) {
			t.Fatalf("cycle %d: output diverged", i)
		}
	}
	if !m.dirtyOverflow && !m.trackDirty {
		t.Fatal("store flood neither armed tracking nor overflowed it")
	}
	// After overflow, the next prepare regenerates fully; verify the
	// image is exactly the canonical SplitMix64 expansion.
	m.PrepareMemory(p.MemSize, p.MemSeed)
	if !bytes.Equal(m.mem, pristine(p.MemSize, p.MemSeed)) {
		t.Fatal("post-overflow prepare left a non-pristine image")
	}
}

// FuzzPrepareMemorySequence drives a machine through a pseudo-random
// sequence of prepare/run cycles — seed changes, size changes, right and
// wrong preparations interleaved — and requires every run's output to
// equal a fresh machine's run of the same program. Outputs alone would
// miss a stale word the program never loads, so memory is compared too:
// a matching preparation must leave exactly the pristine image, and after
// each run the machine's memory must equal the fresh machine's. This is
// the overlapped-session state machine (prepare, maybe-mismatch, adopt,
// repair, overflow) explored adversarially.
func FuzzPrepareMemorySequence(f *testing.F) {
	f.Add(uint64(1), uint8(6))
	f.Add(uint64(42), uint8(20))
	f.Add(uint64(72), uint8(24)) // reaches the dirty-word repair path
	f.Fuzz(func(t *testing.T, fuzzSeed uint64, steps uint8) {
		if steps > 24 {
			steps = 24
		}
		r := rng.NewXoshiro256(fuzzSeed)
		m := &Machine{}
		m.SetBackend(BackendInterp)
		sizes := []int{prog.MinMemSize, prog.MinMemSize * 2, prog.MinMemSize * 4}
		for i := 0; i < int(steps); i++ {
			size := sizes[r.Intn(len(sizes))]
			memSeed := r.Next() % 4 // tiny seed space forces image reuse
			counts := []int{16, 200, 1000}
			count := counts[r.Intn(len(counts))]

			b := prog.NewBuilder(size, memSeed)
			b.NewBlock()
			b.MovI(0, int64(count))
			b.MovI(1, int64(r.Next()&uint64(size-1)))
			b.MovI(2, 0)
			b.MovI(3, int64(r.Next()))
			body := b.NewBlock()
			b.Store(1, 3, 0)
			b.Load(4, 1, 16)
			b.AddI(1, 1, 24)
			b.AddI(0, 0, -1)
			b.Branch(isa.OpBne, 0, 2, body)
			b.SetBlock(b.NewBlock())
			b.Halt()
			p, err := b.Build()
			if err != nil {
				t.Fatal(err)
			}

			// Sometimes prepare correctly, sometimes wrongly, sometimes
			// not at all; correctness must not depend on any of it.
			switch r.Intn(3) {
			case 0:
				m.PrepareMemory(p.MemSize, p.MemSeed)
				if !bytes.Equal(m.mem, pristine(p.MemSize, p.MemSeed)) {
					t.Fatalf("step %d (size %d seed %d): prepared image is not pristine",
						i, size, memSeed)
				}
			case 1:
				m.PrepareMemory(sizes[r.Intn(len(sizes))], r.Next()%4)
			}

			fresh := &Machine{}
			fresh.SetBackend(BackendInterp)
			want := runDigest(fresh, p)
			if got := runDigest(m, p); !bytes.Equal(got, want) {
				t.Fatalf("step %d (size %d seed %d count %d): output diverged",
					i, size, memSeed, count)
			}
			if !bytes.Equal(m.mem, fresh.mem) {
				t.Fatalf("step %d (size %d seed %d count %d): memory after the run diverged",
					i, size, memSeed, count)
			}
		}
	})
}
