package main

import (
	"encoding/binary"
	"fmt"

	"hashcore/internal/asm"
	"hashcore/internal/gate"
	"hashcore/internal/perfprox"
	"hashcore/internal/vm"
	"hashcore/internal/workload"
)

// runDumpWidget prints one widget program — its architectural stream,
// which is what both the interpreter and the JIT execute block by block,
// and the native-code footprint the JIT compiles from it — for codegen
// debugging. The widget is the one the
// production pipeline would run first for the input LE64(seed): its
// generator seed is the hash gate applied to that input, exactly as
// Session.Hash derives it, so a digest divergence seen in the differential
// tests can be replayed here and inspected instruction by instruction.
func runDumpWidget(profileName string, seed uint64) error {
	w, err := workload.ByName(profileName)
	if err != nil {
		return err
	}
	gen, err := perfprox.NewGenerator(w.Profile, perfprox.Params{})
	if err != nil {
		return err
	}
	var input [8]byte
	binary.LittleEndian.PutUint64(input[:], seed)
	widgetSeed := perfprox.Seed(gate.SHA256{}.Sum(input[:]))
	p, err := gen.Generate(widgetSeed)
	if err != nil {
		return err
	}

	fmt.Printf("; profile=%s seed=%d widget-seed=%x\n", profileName, seed, widgetSeed[:8])
	fmt.Println("; ---- architectural stream ----")
	fmt.Print(asm.Disassemble(p))

	var m vm.Machine
	if err := m.Load(p); err != nil {
		return err
	}
	if size, err := m.CompileNative(); err != nil {
		fmt.Printf("; ---- native code: unavailable (%v) ----\n", err)
	} else {
		fmt.Printf("; ---- native code: %d bytes ----\n", size)
	}
	return nil
}
