//go:build amd64 && linux

package jit

// Unit tests for the code generator, below the vm driver: hand-built
// Programs compiled and entered directly through a Frame. The vm package's
// differential suites (FuzzNativeVsInterp and the boundary sweeps) are the
// semantic ground truth; these tests pin the Frame ABI — head-guard exits,
// wholesale accounting, status codes — that the driver relies on.

import (
	"errors"
	"testing"
	"unsafe"

	"hashcore/internal/isa"
)

// twoBlockProgram is MovI r0,7; MovI r9,5; Add r2,r0,r9; Jmp b1 / Halt:
// it exercises a register-mapped and a frame-spilled integer register, an
// inter-block jump fixup and the halt exit.
func twoBlockProgram() *Program {
	return &Program{
		Instrs: []Instr{
			{Op: isa.OpMovI, Dst: 0, Imm: 7},
			{Op: isa.OpMovI, Dst: 9, Imm: 5},
			{Op: isa.OpAdd, Dst: 2, A: 0, B: 9},
			{Op: isa.OpJmp, Target: 1},
			{Op: isa.OpHalt},
		},
		Blocks: []BlockSpan{{Start: 0, Count: 4}, {Start: 4, Count: 1}},
	}
}

// newFrame returns a Frame with a generous budget and countdown, wired to
// the given per-block counters.
func newFrame(execs []uint64) *Frame {
	f := &Frame{MaxInstr: 1 << 20, UntilSnap: 1 << 20}
	f.ExecsBase = uintptr(unsafe.Pointer(&execs[0]))
	return f
}

func TestCompileAndRun(t *testing.T) {
	c := NewCompiler()
	code, err := c.Compile(twoBlockProgram())
	if err != nil {
		t.Fatalf("Compile: %v", err)
	}
	if code.Size() == 0 {
		t.Fatal("Compile produced no code")
	}
	execs := make([]uint64, 2)
	f := newFrame(execs)
	code.Run(f, 0)

	if f.Status != StatusHalt {
		t.Fatalf("Status = %d, want StatusHalt", f.Status)
	}
	if f.IntRegs[0] != 7 || f.IntRegs[9] != 5 || f.IntRegs[2] != 12 {
		t.Errorf("IntRegs = r0:%d r9:%d r2:%d, want 7, 5, 12", f.IntRegs[0], f.IntRegs[9], f.IntRegs[2])
	}
	if f.Retired != 5 {
		t.Errorf("Retired = %d, want 5 (wholesale per-block accounting)", f.Retired)
	}
	if f.UntilSnap != 1<<20-5 {
		t.Errorf("UntilSnap = %d, want %d", f.UntilSnap, 1<<20-5)
	}
	if execs[0] != 1 || execs[1] != 1 {
		t.Errorf("execs = %v, want one fast-path execution of each block", execs)
	}
}

// TestHeadGuards drives the fast-path head check to each of its
// exits: budget exhausted, block would overrun the budget, block would
// cross the snapshot countdown — all bounce to the slow path naming the
// blocked block (the driver's per-instruction path re-derives whether
// that means truncation or a snapshot). On a guard exit no accounting may
// have happened.
func TestHeadGuards(t *testing.T) {
	c := NewCompiler()
	code, err := c.Compile(twoBlockProgram())
	if err != nil {
		t.Fatalf("Compile: %v", err)
	}
	execs := make([]uint64, 2)

	f := newFrame(execs)
	f.Retired = f.MaxInstr // budget already spent
	code.Run(f, 0)
	if f.Status != StatusSlow || f.NextBlock != 0 {
		t.Errorf("retired == maxInstr: Status = %d NextBlock = %d, want slow at block 0", f.Status, f.NextBlock)
	}
	if f.Retired != f.MaxInstr {
		t.Errorf("retired == maxInstr: Retired = %d, want unchanged %d", f.Retired, f.MaxInstr)
	}

	f = newFrame(execs)
	f.MaxInstr = 3 // block 0 retires 4 > 3 remaining
	code.Run(f, 0)
	if f.Status != StatusSlow || f.NextBlock != 0 {
		t.Errorf("budget straddle: Status = %d NextBlock = %d, want slow at block 0", f.Status, f.NextBlock)
	}
	if f.Retired != 0 || execs[0] != 0 {
		t.Errorf("guard exit accounted anyway: retired=%d execs=%v", f.Retired, execs)
	}

	f = newFrame(execs)
	f.UntilSnap = 4 // count >= untilSnap forces the snapshotting slow path
	code.Run(f, 0)
	if f.Status != StatusSlow || f.NextBlock != 0 {
		t.Errorf("snapshot straddle: Status = %d NextBlock = %d, want slow at block 0", f.Status, f.NextBlock)
	}

	// Countdown 5 clears block 0 (4 < 5) but leaves 1, so the halt block's
	// count >= untilSnap guard bounces it to the snapshotting slow path.
	f = newFrame(execs)
	f.UntilSnap = 5
	code.Run(f, 0)
	if f.Status != StatusSlow || f.NextBlock != 1 || f.Retired != 4 || f.UntilSnap != 1 {
		t.Errorf("countdown 5: Status=%d NextBlock=%d Retired=%d UntilSnap=%d, want slow at block 1 after retiring 4",
			f.Status, f.NextBlock, f.Retired, f.UntilSnap)
	}

	// Countdown 6 clears both blocks wholesale.
	f = newFrame(execs)
	f.UntilSnap = 6
	code.Run(f, 0)
	if f.Status != StatusHalt || f.UntilSnap != 1 {
		t.Errorf("countdown 6: Status = %d UntilSnap = %d, want halt with 1 left", f.Status, f.UntilSnap)
	}
}

// TestResumeMidProgram enters at a non-zero block, the driver's re-entry
// pattern after a slow-path block.
func TestResumeMidProgram(t *testing.T) {
	c := NewCompiler()
	code, err := c.Compile(twoBlockProgram())
	if err != nil {
		t.Fatalf("Compile: %v", err)
	}
	execs := make([]uint64, 2)
	f := newFrame(execs)
	code.Run(f, 1) // skip straight to the halt block
	if f.Status != StatusHalt || f.Retired != 1 || execs[0] != 0 || execs[1] != 1 {
		t.Errorf("resume at block 1: Status=%d Retired=%d execs=%v", f.Status, f.Retired, execs)
	}
}

func TestCompileRejectsBadPrograms(t *testing.T) {
	c := NewCompiler()
	if _, err := c.Compile(&Program{
		Instrs: []Instr{{Op: isa.OpJmp, Target: 7}},
		Blocks: []BlockSpan{{Start: 0, Count: 1}},
	}); err == nil {
		t.Error("out-of-range branch target compiled")
	}
	if _, err := c.Compile(&Program{
		Instrs: []Instr{{Op: isa.Opcode(250)}},
		Blocks: []BlockSpan{{Start: 0, Count: 1}},
	}); err == nil {
		t.Error("unknown opcode compiled")
	}
	if _, err := c.Compile(&Program{Blocks: make([]BlockSpan, maxBlocks+1)}); !errors.Is(err, ErrTooLarge) {
		t.Errorf("oversized block table: err = %v, want ErrTooLarge", err)
	}
}

// TestRecompileReusesMapping compiles twice through one Compiler and runs
// the second program: the W^X mapping must be safely reprotected and the
// old code fully replaced.
func TestRecompileReusesMapping(t *testing.T) {
	c := NewCompiler()
	if _, err := c.Compile(twoBlockProgram()); err != nil {
		t.Fatalf("first Compile: %v", err)
	}
	code, err := c.Compile(&Program{
		Instrs: []Instr{{Op: isa.OpMovI, Dst: 3, Imm: 41}, {Op: isa.OpAddI, Dst: 3, A: 3, Imm: 1}, {Op: isa.OpHalt}},
		Blocks: []BlockSpan{{Start: 0, Count: 3}},
	})
	if err != nil {
		t.Fatalf("second Compile: %v", err)
	}
	execs := make([]uint64, 1)
	f := newFrame(execs)
	code.Run(f, 0)
	if f.Status != StatusHalt || f.IntRegs[3] != 42 {
		t.Errorf("recompiled code: Status=%d r3=%d, want halt with 42", f.Status, f.IntRegs[3])
	}
}
