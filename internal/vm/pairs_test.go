package vm_test

// Adjacent-pair regression set: every instruction pair the interpreter once
// executed as a single superinstruction (compare-and-branch, immediate-fed
// ALU ops, address-forming addi before a memory op, an ALU op before the
// block's closing jmp, and chained add/sub/xor). These pairs are where one
// instruction's result feeds the next within a block, so each one is pinned
// on every engine: unobserved interpreter, observed interpreter and native
// code, under every budget that stops the run inside, between or after the
// pair. The test names are the ones the set has always carried, so its
// history stays continuous.

import (
	"bytes"
	"strings"
	"testing"

	"hashcore/internal/asm"
	"hashcore/internal/isa"
	"hashcore/internal/prog"
	"hashcore/internal/vm"
)

var adjacentPairs = [...]struct{ first, second isa.Opcode }{
	{isa.OpCmpLT, isa.OpBeq},
	{isa.OpCmpLT, isa.OpBne},
	{isa.OpCmpEQ, isa.OpBeq},
	{isa.OpCmpEQ, isa.OpBne},
	{isa.OpAddI, isa.OpBeq},
	{isa.OpAddI, isa.OpBne},
	{isa.OpMovI, isa.OpAdd},
	{isa.OpMovI, isa.OpSub},
	{isa.OpMovI, isa.OpXor},
	{isa.OpMovI, isa.OpAnd},
	{isa.OpMovI, isa.OpOr},
	{isa.OpAddI, isa.OpLoad},
	{isa.OpAddI, isa.OpStore},
	{isa.OpMul, isa.OpAdd},
	{isa.OpFMul, isa.OpFAdd},
	{isa.OpRor, isa.OpAnd},

	{isa.OpAdd, isa.OpJmp},
	{isa.OpSub, isa.OpJmp},
	{isa.OpAnd, isa.OpJmp},
	{isa.OpOr, isa.OpJmp},
	{isa.OpXor, isa.OpJmp},
	{isa.OpShl, isa.OpJmp},
	{isa.OpShr, isa.OpJmp},
	{isa.OpRor, isa.OpJmp},
	{isa.OpCmpLT, isa.OpJmp},
	{isa.OpCmpEQ, isa.OpJmp},
	{isa.OpMov, isa.OpJmp},
	{isa.OpMovI, isa.OpJmp},
	{isa.OpAddI, isa.OpJmp},
	{isa.OpMul, isa.OpJmp},
	{isa.OpMulH, isa.OpJmp},
	{isa.OpFAdd, isa.OpJmp},
	{isa.OpFSub, isa.OpJmp},
	{isa.OpFMul, isa.OpJmp},
	{isa.OpFDiv, isa.OpJmp},
	{isa.OpFSqrt, isa.OpJmp},
	{isa.OpFMov, isa.OpJmp},
	{isa.OpFCvt, isa.OpJmp},
	{isa.OpFToI, isa.OpJmp},
	{isa.OpLoad, isa.OpJmp},
	{isa.OpFLoad, isa.OpJmp},
	{isa.OpStore, isa.OpJmp},
	{isa.OpFStore, isa.OpJmp},
	{isa.OpVAdd, isa.OpJmp},
	{isa.OpVXor, isa.OpJmp},
	{isa.OpVMul, isa.OpJmp},
	{isa.OpVBcast, isa.OpJmp},
	{isa.OpVRed, isa.OpJmp},

	{isa.OpAdd, isa.OpAdd},
	{isa.OpAdd, isa.OpSub},
	{isa.OpAdd, isa.OpXor},
	{isa.OpSub, isa.OpAdd},
	{isa.OpSub, isa.OpSub},
	{isa.OpSub, isa.OpXor},
	{isa.OpXor, isa.OpAdd},
	{isa.OpXor, isa.OpSub},
	{isa.OpXor, isa.OpXor},
}

func pairName(first, second isa.Opcode) string { return first.String() + "." + second.String() }

// pairProgram builds a widget whose body block holds exactly first then
// second (plus a closing jmp unless second is control), fed by registers
// holding varied, nonzero integer, FP and vector values. seed picks the
// memory image.
func pairProgram(t *testing.T, first, second isa.Opcode, seed uint64) *prog.Program {
	t.Helper()
	b := prog.NewBuilder(prog.MinMemSize, seed)
	entry := b.NewBlock()
	body := b.NewBlock()
	tgt := b.NewBlock()
	exit := b.NewBlock()

	b.SetBlock(entry)
	for r := uint8(0); r < 6; r++ {
		b.MovI(r, int64(r)*0x9e37+3)
	}
	for r := uint8(0); r < 4; r++ {
		b.Op2(isa.OpFCvt, r, r)
		b.Op2(isa.OpVBcast, r, r)
	}
	b.Jmp(body)

	b.SetBlock(body)
	b.Emit(instantiate(t, first, 2, 3, 4, 40, tgt))
	b.Emit(instantiate(t, second, 1, 2, 3, 48, tgt))
	if !second.IsControl() {
		b.Jmp(tgt)
	}

	b.SetBlock(tgt)
	b.Op3(isa.OpXor, 1, 1, 2)
	b.Jmp(exit)
	b.SetBlock(exit)
	b.Halt()

	p, err := b.Build()
	if err != nil {
		t.Fatalf("Build: %v", err)
	}
	return p
}

// instantiate builds one instruction of opcode op with in-range operands.
func instantiate(t *testing.T, op isa.Opcode, dst, a, b uint8, imm int64, tgt prog.Label) prog.Instr {
	t.Helper()
	ins := prog.Instr{Op: op}
	dstF, aF, bF := op.Operands()
	clamp := func(r uint8, f isa.RegFile) uint8 {
		if f == isa.RegNone {
			return 0
		}
		return r % uint8(f.RegCount())
	}
	ins.Dst = clamp(dst, dstF)
	ins.A = clamp(a, aF)
	ins.B = clamp(b, bF)
	if op.HasImm() {
		ins.Imm = imm
	}
	if op.IsControl() && op != isa.OpHalt {
		ins.Target = uint32(tgt)
	}
	return ins
}

// opRecorder records the opcode of every retired instruction.
type opRecorder struct{ ops []isa.Opcode }

func (r *opRecorder) OnRetire(ev *vm.Event) { r.ops = append(r.ops, ev.Op) }

// retiresAdjacent reports whether first retires immediately followed by
// second somewhere in ops.
func retiresAdjacent(ops []isa.Opcode, first, second isa.Opcode) bool {
	for i := 0; i+1 < len(ops); i++ {
		if ops[i] == first && ops[i+1] == second {
			return true
		}
	}
	return false
}

// TestEveryFusedOpcodeSemantics checks, for every adjacent pair in the
// set, that the pair really retires back to back and that the unobserved
// interpreter, the observed interpreter and native code retire identical
// state under every budget from one instruction to one past completion.
func TestEveryFusedOpcodeSemantics(t *testing.T) {
	for _, pc := range adjacentPairs {
		t.Run(pairName(pc.first, pc.second), func(t *testing.T) {
			p := pairProgram(t, pc.first, pc.second, 99)
			m, err := vm.New(p)
			if err != nil {
				t.Fatalf("New: %v", err)
			}
			rec := &opRecorder{}
			m.Run(vm.Params{}, rec)
			if !retiresAdjacent(rec.ops, pc.first, pc.second) {
				t.Fatalf("%s and %s never retire back to back: %v", pc.first, pc.second, rec.ops)
			}
			natural := checkInterpMatchesObserved(t, m, vm.Params{}).Retired
			for budget := uint64(1); budget <= natural+1; budget++ {
				params := vm.Params{MaxInstructions: budget}
				checkInterpMatchesObserved(t, m, params)
				if vm.NativeSupported() {
					checkNativeVsInterp(t, m, params)
				}
			}
			if vm.NativeSupported() {
				checkNativeVsInterp(t, m, vm.Params{SnapshotInterval: 1})
			}
		})
	}
}

// TestDecodeFusedPartsRoundTrip checks, for every adjacent pair in the
// set, that the disassembly lists the pair on consecutive lines and
// assembles back into a program that executes bit-for-bit like the
// original, so the listing shows exactly what runs.
func TestDecodeFusedPartsRoundTrip(t *testing.T) {
	for _, pc := range adjacentPairs {
		t.Run(pairName(pc.first, pc.second), func(t *testing.T) {
			p := pairProgram(t, pc.first, pc.second, 42)
			body := p.Blocks[1].Instrs
			if len(body) < 2 || body[0].Op != pc.first || body[1].Op != pc.second {
				t.Fatalf("body block does not open with the pair: %+v", body)
			}
			text := asm.Disassemble(p)
			pair := "\t" + asm.FormatInstr(body[0]) + "\n\t" + asm.FormatInstr(body[1]) + "\n"
			if !strings.Contains(text, pair) {
				t.Fatalf("listing does not show the pair on consecutive lines:\n%s", text)
			}
			q, err := asm.Assemble(text)
			if err != nil {
				t.Fatalf("re-assembling the listing: %v\n%s", err, text)
			}
			if len(q.Blocks) != len(p.Blocks) {
				t.Fatalf("%d blocks re-assembled as %d", len(p.Blocks), len(q.Blocks))
			}
			for bi := range p.Blocks {
				a, b := p.Blocks[bi].Instrs, q.Blocks[bi].Instrs
				if len(a) != len(b) {
					t.Fatalf("block %d: %d instructions re-assembled as %d", bi, len(a), len(b))
				}
				for j := range a {
					if a[j] != b[j] {
						t.Fatalf("block %d slot %d: %+v re-assembled as %+v", bi, j, a[j], b[j])
					}
				}
			}
			var want, got vm.Result
			for _, run := range []struct {
				p   *prog.Program
				out *vm.Result
			}{{p, &want}, {q, &got}} {
				m, err := vm.New(run.p)
				if err != nil {
					t.Fatalf("New: %v", err)
				}
				m.SetBackend(vm.BackendInterp)
				m.RunInto(vm.Params{SnapshotInterval: 1}, nil, run.out)
			}
			if !bytes.Equal(want.Output, got.Output) || want.Retired != got.Retired {
				t.Fatalf("re-assembled program diverges: %d/%d bytes, %d/%d retired",
					len(want.Output), len(got.Output), want.Retired, got.Retired)
			}
		})
	}
}
