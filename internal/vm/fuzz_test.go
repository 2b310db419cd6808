package vm_test

// Property and fuzz tests for the interpreter's block accounting: for
// arbitrary generated widgets and arbitrary budget/snapshot parameters, an
// unobserved interpreter run (blocks accounted wholesale wherever they fit)
// must retire exactly the Result an observed run (every instruction
// accounted exactly) does — output bytes, retired count, truncation flag,
// snapshot count, class counts and branch statistics. Programs that halt
// exactly on a budget or snapshot boundary are probed explicitly: those
// are the cases exact execution of boundary blocks exists for.

import (
	"bytes"
	"testing"

	"hashcore/internal/perfprox"
	"hashcore/internal/rng"
	"hashcore/internal/vm"
	"hashcore/internal/workload"
)

// fuzzGenerator builds a generator over a shrunken leela-style profile so
// each fuzz execution retires a few thousand instructions, not 150k.
func fuzzGenerator(tb testing.TB) *perfprox.Generator {
	tb.Helper()
	w, err := workload.ByName("leela")
	if err != nil {
		tb.Fatal(err)
	}
	p := w.Profile.Clone()
	p.TargetDynamic = 4096
	p.WorkingSet = 1 << 15
	gen, err := perfprox.NewGenerator(p, perfprox.Params{LoopTrips: 4})
	if err != nil {
		tb.Fatal(err)
	}
	return gen
}

// fullProfileGenerator exercises every workload family (int, fp, vector)
// so FP and vector opcodes appear in generated code too.
func fullProfileGenerator(tb testing.TB, name string) *perfprox.Generator {
	tb.Helper()
	w, err := workload.ByName(name)
	if err != nil {
		tb.Fatal(err)
	}
	p := w.Profile.Clone()
	p.TargetDynamic = 4096
	if p.WorkingSet > 1<<15 {
		p.WorkingSet = 1 << 15
	}
	gen, err := perfprox.NewGenerator(p, perfprox.Params{LoopTrips: 4})
	if err != nil {
		tb.Fatal(err)
	}
	return gen
}

func seedFromWords(lo, hi uint64) perfprox.Seed {
	var s perfprox.Seed
	sm := rng.NewSplitMix64(lo ^ hi*0x9e3779b97f4a7c15)
	for i := 0; i < len(s); i += 8 {
		v := sm.Next()
		for j := 0; j < 8; j++ {
			s[i+j] = byte(v >> (8 * j))
		}
	}
	return s
}

// checkInterpMatchesObserved runs m on the interpreter unobserved and
// observed with params and fails the test on any divergence. The backend
// is pinned: an unobserved run on the default backend would be native code
// wherever the platform has a JIT.
func checkInterpMatchesObserved(t *testing.T, m *vm.Machine, params vm.Params) (interp vm.Result) {
	t.Helper()
	var observed vm.Result
	m.SetBackend(vm.BackendInterp)
	m.RunInto(params, nil, &interp)
	if st := m.LastRunStats(); st.Backend != vm.BackendInterp {
		t.Fatalf("params %+v: unobserved run used %v, want interp", params, st.Backend)
	}
	m.RunInto(params, &nullObserver{}, &observed)
	if !bytes.Equal(interp.Output, observed.Output) {
		t.Fatalf("params %+v: interp/observed outputs differ (%d vs %d bytes)",
			params, len(interp.Output), len(observed.Output))
	}
	if interp.Retired != observed.Retired || interp.Truncated != observed.Truncated ||
		interp.Snapshots != observed.Snapshots ||
		interp.CondBranches != observed.CondBranches ||
		interp.TakenBranches != observed.TakenBranches ||
		interp.ClassCounts != observed.ClassCounts {
		t.Fatalf("params %+v: result metadata diverged:\n interp   %+v\n observed %+v",
			params, interp, observed)
	}
	return interp
}

// fuzzBudget derives an instruction budget near interesting edges from a
// fuzzed selector: the default, exact completion, one off either side,
// mid-run truncation and tiny runs.
func fuzzBudget(natural uint64, sel uint8) uint64 {
	switch sel % 8 {
	case 1:
		return natural
	case 2:
		return natural - 1
	case 3:
		return natural + 1
	case 4:
		return natural/2 + 1
	case 5:
		return 1
	case 6:
		return 2
	case 7:
		return natural/3 + 1
	}
	return 0 // default budget
}

// TestInterpMatchesObservedOnBoundaries sweeps generated widgets through
// budgets and snapshot intervals that land exactly on, one before and one
// after the program's natural retirement — plus intervals that divide it —
// locking the exact execution of boundary blocks bit-for-bit.
func TestInterpMatchesObservedOnBoundaries(t *testing.T) {
	for _, name := range []string{"leela", "lbm"} {
		gen := fullProfileGenerator(t, name)
		for i := uint64(0); i < 4; i++ {
			p, err := gen.Generate(seedFromWords(i, 0xabcd))
			if err != nil {
				t.Fatal(err)
			}
			m, err := vm.New(p)
			if err != nil {
				t.Fatal(err)
			}
			natural := checkInterpMatchesObserved(t, m, vm.Params{}).Retired

			budgets := []uint64{natural, natural - 1, natural + 1, natural / 2, natural/3 + 1, 1, 2}
			for _, b := range budgets {
				if b == 0 {
					continue
				}
				checkInterpMatchesObserved(t, m, vm.Params{MaxInstructions: b})
			}
			intervals := []uint64{1, 2, 3, 7, natural - 1, natural, 64}
			for _, iv := range intervals {
				if iv == 0 {
					continue
				}
				checkInterpMatchesObserved(t, m, vm.Params{SnapshotInterval: iv})
				// Budget AND snapshot boundaries interacting in one run.
				checkInterpMatchesObserved(t, m, vm.Params{SnapshotInterval: iv, MaxInstructions: natural - 1})
			}
		}
	}
}

// FuzzInterpVsObserved generates a widget from fuzzed seed material and
// executes it under fuzzed budget/snapshot parameters on the interpreter,
// unobserved and observed.
func FuzzInterpVsObserved(f *testing.F) {
	f.Add(uint64(1), uint64(2), uint16(0), uint8(0))
	f.Add(uint64(3), uint64(4), uint16(1), uint8(1))
	f.Add(uint64(0xdead), uint64(0xbeef), uint16(2048), uint8(3))
	f.Add(uint64(42), uint64(1<<40), uint16(13), uint8(7))

	gen := fuzzGenerator(f)
	f.Fuzz(func(t *testing.T, seedLo, seedHi uint64, snapRaw uint16, budgetSel uint8) {
		p, err := gen.Generate(seedFromWords(seedLo, seedHi))
		if err != nil {
			t.Skip() // infeasible parameter corner, not an execution bug
		}
		m, err := vm.New(p)
		if err != nil {
			t.Fatalf("generated program failed validation: %v", err)
		}
		params := vm.Params{SnapshotInterval: uint64(snapRaw)}
		natural := checkInterpMatchesObserved(t, m, params).Retired
		params.MaxInstructions = fuzzBudget(natural, budgetSel)
		checkInterpMatchesObserved(t, m, params)
	})
}
