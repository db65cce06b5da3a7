package core

import "repro/internal/vm"

// CoreTracer returns the tracer the bench's core ran its last packet
// with, so tests can pin which paths run with none.
func (b *Bench) CoreTracer() vm.Tracer { return b.cpu.Tracer }
