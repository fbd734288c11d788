package ir

// Decode flattens fn as NewInterp does, for FuzzParseIR in package ir_test:
// a function Verify accepts must decode without a panic.
func Decode(fn *Fn) { decode(fn) }
