package tracein

import (
	"bytes"
	"compress/flate"
	"compress/gzip"
	"errors"
	"io"
	"math"
	"reflect"
	"testing"

	"eventpf/internal/cpu"
	"eventpf/internal/mem"
)

// FuzzTraceDecode feeds arbitrary bytes to Open — a PPFT trace, a ChampSim
// trace, either one gzipped — and drains what it opens twice, through
// Decoder.Next and through Replayer.Fill. Both drains must match the
// reference decoders (reference_test.go) op for op and end the same way: a
// clean end, or an error of the same type at the same Offset. Every error is
// typed, nothing panics, every PC is in cpu.MicroOp.PC's range, every
// ChampSim dependence distance stays within the ops before it, and every
// replayed dependence names an earlier op or none. The corpus in
// testdata/fuzz/FuzzTraceDecode holds the sampleOps encoding, a trace whose
// record 1 reaches five ops back, the truncated, trailer-mismatch and
// data-after-trailer cases, one gzipped trace, a header declaring a
// petabyte region and the ChampSim test records.
func FuzzTraceDecode(f *testing.F) {
	f.Fuzz(func(t *testing.T, raw []byte) {
		ref, err := refOpen(bytes.NewReader(raw))
		if err != nil {
			// A header error, or a region table replay could not map.
			var he *HeaderError
			var fe *FormatError
			if !errors.As(err, &he) && !errors.As(err, &fe) {
				t.Fatalf("Open: untyped error %v", err)
			}
			return
		}
		gzipped := len(raw) > 1 && raw[0] == 0x1f && raw[1] == 0x8b
		var want []Op
		wantErr := drain(ref, func(op Op) { want = append(want, op) })
		if !typed(wantErr, gzipped) {
			t.Fatalf("reference decode: untyped error %v", wantErr)
		}

		dec := mustOpen(t, raw)
		_, champsim := dec.(*champsimDecoder)
		i := 0
		err = drain(dec, func(op Op) {
			if i >= len(want) || op != want[i] {
				t.Fatalf("Next: op %d = %+v, reference %v", i, op, want[i:min(i+1, len(want))])
			}
			if op.PC < 0 || op.PC > math.MaxInt32 {
				t.Fatalf("op %d: pc %d outside 0..2³¹-1", i, op.PC)
			}
			if champsim && (op.Rel[0] > uint64(i) || op.Rel[1] > uint64(i)) {
				t.Fatalf("ChampSim op %d depends %v back", i, op.Rel)
			}
			i++
		})
		if i != len(want) || !sameErr(err, wantErr) {
			t.Fatalf("Next: %d ops ending in %v, reference %d ending in %v", i, err, len(want), wantErr)
		}

		// Mapping a header region costs a map entry a page, as the capture
		// machine's arena did; Open allows MaxRegionPages, more than one
		// fuzz input should spend.
		pages := uint64(0)
		for _, r := range dec.Meta().Regions {
			if pages += r.Size/mem.PageSize + 1; pages > 1<<12 {
				return
			}
		}
		r := NewReplayer(mustOpen(t, raw), mem.NewBacking(), nil)
		var op cpu.MicroOp
		for i = 0; r.Fill(&op); i++ {
			if i >= len(want) {
				t.Fatalf("Fill: op %d past the reference's %d", i, len(want))
			}
			w := want[i]
			if op.Kind != w.Kind || op.PC != w.PC || op.Addr != w.Addr || op.Taken != w.Taken {
				t.Fatalf("Fill: op %d = %+v, reference %+v", i, op, w)
			}
			for k, dep := range op.Deps {
				wantDep := cpu.NoDep
				if w.Rel[k] != 0 && w.Rel[k] <= uint64(i) {
					wantDep = int64(i) - int64(w.Rel[k])
				}
				if dep != wantDep {
					t.Fatalf("Fill: op %d dependence %d = %d for distance %d, want %d", i, k, dep, w.Rel[k], wantDep)
				}
			}
		}
		if wantErr == io.EOF {
			wantErr = nil
		}
		if i != len(want) || !sameErr(r.Err(), wantErr) {
			t.Fatalf("Fill: %d ops ending in %v, reference %d ending in %v", i, r.Err(), len(want), wantErr)
		}
	})
}

// drain calls each for every op dec yields and returns the error it stops on.
func drain(dec Decoder, each func(Op)) error {
	for {
		op, err := dec.Next()
		if err != nil {
			return err
		}
		each(op)
	}
}

func mustOpen(t *testing.T, raw []byte) Decoder {
	t.Helper()
	dec, err := Open(bytes.NewReader(raw))
	if err != nil {
		t.Fatalf("Open failed where the reference opened: %v", err)
	}
	return dec
}

// typed reports whether err is a clean end, one of the package's error
// types, or — gzip input only — the decompressor's report of a corrupt or
// truncated stream, passed through as the underlying I/O error.
func typed(err error, gzipped bool) bool {
	var fe *FormatError
	var ce flate.CorruptInputError
	switch {
	case err == io.EOF || errors.As(err, &fe):
		return true
	case !gzipped:
		return false
	}
	return errors.As(err, &ce) || errors.Is(err, gzip.ErrChecksum) || errors.Is(err, gzip.ErrHeader) ||
		errors.Is(err, io.ErrUnexpectedEOF)
}

// sameErr compares two ends of a drain: the same error type with the same
// message, which for a *FormatError includes its Offset.
func sameErr(a, b error) bool {
	if a == nil || b == nil {
		return a == b
	}
	return reflect.TypeOf(a) == reflect.TypeOf(b) && a.Error() == b.Error()
}
