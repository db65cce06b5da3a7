package vm

// TranslationFacts carries verifier-proven properties of a program into
// the block-threaded translator. The facts are produced by the static
// verifier (internal/staticcheck) from an abstract interpretation of the
// program under the framework's entry contract; the translator consumes
// them to elide runtime fault checks it could never prove safe on its
// own.
//
// Soundness contract: every claim in a TranslationFacts must hold on
// EVERY execution that enters the program at one of the entry points and
// with the ABI register state declared to the verifier. The translator
// trusts the facts blindly — an unchecked micro-op performs no
// alignment or region validation at all — so facts must only ever come
// from a sound analysis. A nil *TranslationFacts (or any per-entry zero
// value) always means "no proof", which degrades to the fully-checked
// translation; it can never make a program less safe, only slower.
type TranslationFacts struct {
	// Mem[i] is the proven memory region of instruction i's load/store
	// operand: on every run the access is entirely inside this mapped
	// region and naturally aligned, so the simulator's alignment and
	// classification checks cannot fire. RegionNone means no proof.
	Mem []Region
	// Redundant[i] marks an AND/ANDI at i that provably leaves its
	// source value unchanged (every possibly-set bit of the source is
	// kept by the mask), so it can be translated as a register move.
	Redundant []bool
	// Dead[b] marks basic block b (in the translator's own block
	// numbering) as unreachable from the declared entry points. Dead
	// blocks keep their fully-checked translation and are skipped by
	// the optimizer.
	Dead []bool
}

// provenOp returns instruction i's fully-checked micro-op op, in block
// b, with the facts rewrites applied: proven loads and stores become
// unchecked micro-ops carrying their region in rs2, and provably
// redundant masks become register moves. A proven load into the zero
// register keeps its checked op: it still reads memory, and a
// BlockTracer must see that read. Instructions in dead blocks keep
// their fully-checked op. This is the one place the rewrites live.
func (tf *TranslationFacts) provenOp(op microOp, i, b int) microOp {
	if tf.deadAt(b) {
		return op
	}
	switch op.code {
	case uLB, uLBU, uLH, uLHU, uLW:
		if r := tf.memAt(i); r != RegionNone && op.rd != 0 {
			op.code = op.code - uLB + uULB
			op.rs2 = uint8(r)
		}
	case uSB, uSH, uSW:
		if r := tf.memAt(i); r != RegionNone {
			op.code = op.code - uSB + uUSB
			op.rs2 = uint8(r)
		}
	case uAND, uANDI:
		if tf.redundantAt(i) {
			// The mask provably keeps every possibly-set source bit.
			if op.rd == op.rs1 {
				return microOp{code: uNOP}
			}
			return microOp{code: uADDI, rd: op.rd, rs1: op.rs1}
		}
	}
	return op
}

// memAt returns the proven region for instruction i, RegionNone when the
// facts are absent or silent.
func (tf *TranslationFacts) memAt(i int) Region {
	if tf == nil || i >= len(tf.Mem) {
		return RegionNone
	}
	return tf.Mem[i]
}

func (tf *TranslationFacts) redundantAt(i int) bool {
	return tf != nil && i < len(tf.Redundant) && tf.Redundant[i]
}

func (tf *TranslationFacts) deadAt(b int) bool {
	return tf != nil && b < len(tf.Dead) && tf.Dead[b]
}
