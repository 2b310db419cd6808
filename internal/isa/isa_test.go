package isa

import "testing"

func TestEveryOpcodeHasClassAndName(t *testing.T) {
	for op, info := range opcodes {
		if info.name == "" {
			t.Errorf("opcode %d has no mnemonic", op)
		}
		if info.class < ClassIntALU || info.class >= numClasses {
			t.Errorf("opcode %s has invalid class %d", info.name, info.class)
		}
	}
}

func TestMnemonicRoundTrip(t *testing.T) {
	for op, info := range opcodes {
		got, ok := FromMnemonic(info.name)
		if !ok {
			t.Errorf("FromMnemonic(%q) not found", info.name)
			continue
		}
		if got != op {
			t.Errorf("FromMnemonic(%q) = %d, want %d", info.name, got, op)
		}
	}
	if _, ok := FromMnemonic("bogus"); ok {
		t.Error("FromMnemonic accepted an unknown mnemonic")
	}
}

func TestInvalidOpcode(t *testing.T) {
	if OpInvalid.Valid() {
		t.Error("OpInvalid reported valid")
	}
	if Opcode(200).Valid() {
		t.Error("undefined opcode 200 reported valid")
	}
	if got := Opcode(200).String(); got != "op(200)" {
		t.Errorf("String of invalid opcode = %q", got)
	}
	if got := Class(99).String(); got != "class(99)" {
		t.Errorf("String of invalid class = %q", got)
	}
}

func TestControlClassification(t *testing.T) {
	controls := []Opcode{OpBeq, OpBne, OpBlt, OpBge, OpJmp, OpHalt}
	for _, op := range controls {
		if !op.IsControl() {
			t.Errorf("%s should be control", op)
		}
		if op.ClassOf() != ClassBranch {
			t.Errorf("%s class = %s, want branch", op, op.ClassOf())
		}
	}
	condBranches := []Opcode{OpBeq, OpBne, OpBlt, OpBge}
	for _, op := range condBranches {
		if !op.IsCondBranch() {
			t.Errorf("%s should be a conditional branch", op)
		}
	}
	if OpJmp.IsCondBranch() || OpHalt.IsCondBranch() {
		t.Error("jmp/halt misclassified as conditional branches")
	}
	if OpAdd.IsControl() {
		t.Error("add misclassified as control")
	}
}

func TestOperandsConsistentWithClass(t *testing.T) {
	for op, info := range opcodes {
		dst, a, b := op.Operands()
		// Every non-control, non-store opcode must write a register so
		// that full execution is observable in snapshots (the paper's
		// "every instruction modifies the registers" requirement).
		writes := dst != RegNone
		isStore := op == OpStore || op == OpFStore
		if !op.IsControl() && !isStore && !writes {
			t.Errorf("%s writes no register", info.name)
		}
		// Register-file sanity: operands only come from defined files.
		for _, f := range []RegFile{dst, a, b} {
			switch f {
			case RegNone, RegInt, RegFP, RegVec:
			default:
				t.Errorf("%s has undefined operand file %d", info.name, f)
			}
		}
	}
}

func TestHasImmMatchesDocumentedSet(t *testing.T) {
	want := map[Opcode]bool{
		OpMovI: true, OpAddI: true, OpLoad: true, OpFLoad: true,
		OpStore: true, OpFStore: true,
	}
	for op := range opcodes {
		if got := op.HasImm(); got != want[op] {
			t.Errorf("%s HasImm = %v, want %v", op, got, want[op])
		}
	}
}

func TestRegFileProperties(t *testing.T) {
	tests := []struct {
		f      RegFile
		count  int
		prefix string
	}{
		{RegInt, 16, "r"},
		{RegFP, 16, "f"},
		{RegVec, 8, "v"},
		{RegNone, 0, "?"},
	}
	for _, tt := range tests {
		if got := tt.f.RegCount(); got != tt.count {
			t.Errorf("RegCount(%d) = %d, want %d", tt.f, got, tt.count)
		}
		if got := tt.f.Prefix(); got != tt.prefix {
			t.Errorf("Prefix(%d) = %q, want %q", tt.f, got, tt.prefix)
		}
	}
}

func TestClassesListComplete(t *testing.T) {
	seen := map[Class]bool{}
	for _, c := range Classes {
		seen[c] = true
	}
	for _, info := range opcodes {
		if !seen[info.class] {
			t.Errorf("class %s of some opcode missing from Classes", info.class)
		}
	}
	if len(Classes) != int(numClasses)-1 {
		t.Errorf("Classes has %d entries, want %d", len(Classes), int(numClasses)-1)
	}
}

func TestClassStrings(t *testing.T) {
	want := map[Class]string{
		ClassIntALU: "intalu", ClassIntMul: "intmul", ClassFPALU: "fpalu",
		ClassLoad: "load", ClassStore: "store", ClassBranch: "branch",
		ClassVector: "vector",
	}
	for c, s := range want {
		if got := c.String(); got != s {
			t.Errorf("Class(%d).String() = %q, want %q", c, got, s)
		}
	}
}

func TestOperandLimitsMatchOperands(t *testing.T) {
	lim := func(f RegFile) uint8 {
		if f == RegNone {
			return 1
		}
		return uint8(f.RegCount())
	}
	for op := range opcodes {
		dst, a, b := op.Operands()
		ld, la, lb := op.OperandLimits()
		if ld != lim(dst) || la != lim(a) || lb != lim(b) {
			t.Errorf("%s: OperandLimits = (%d,%d,%d), want (%d,%d,%d)",
				op, ld, la, lb, lim(dst), lim(a), lim(b))
		}
	}
	if d, a, b := Opcode(250).OperandLimits(); d != 0 || a != 0 || b != 0 {
		t.Errorf("invalid opcode OperandLimits = (%d,%d,%d), want zeros", d, a, b)
	}
}

func TestClassTableMatchesMap(t *testing.T) {
	for op, info := range opcodes {
		if op.ClassOf() != info.class {
			t.Errorf("%s: ClassOf = %v, want %v", op, op.ClassOf(), info.class)
		}
	}
}

// TestOpMetaMatches pins the packed OpMeta word to the canonical
// per-opcode predicates for every possible opcode byte, including
// undefined ones (which must read as invalid with all-zero operand
// bounds).
func TestOpMetaMatches(t *testing.T) {
	for i := 0; i < 256; i++ {
		op := Opcode(i)
		m := MetaOf(op)
		if got, want := m&MetaValid != 0, op.Valid(); got != want {
			t.Errorf("op %d: meta valid = %v, want %v", i, got, want)
		}
		if got, want := m&MetaControl != 0, op.Valid() && op.IsControl(); got != want {
			t.Errorf("op %d: meta control = %v, want %v", i, got, want)
		}
		wd, wa, wb := op.OperandLimits()
		if m.LimDst() != wd || m.LimA() != wa || m.LimB() != wb {
			t.Errorf("op %d: meta limits = (%d,%d,%d), want (%d,%d,%d)",
				i, m.LimDst(), m.LimA(), m.LimB(), wd, wa, wb)
		}
		var wantClass Class
		if op.Valid() {
			wantClass = op.ClassOf()
		}
		if m.Class() != wantClass {
			t.Errorf("op %d: meta class = %v, want %v", i, m.Class(), wantClass)
		}
	}
}
