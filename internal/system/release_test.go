package system

import (
	"reflect"
	"testing"

	"eventpf/internal/mem"
)

// TestReleasedMachine: after Release the machine's functional memory and its
// caches refuse access — a panic, never another run's data — while the
// engine, the statistics and the digest read as they did before, and a
// released machine does not fork.
func TestReleasedMachine(t *testing.T) {
	m := New(DefaultConfig(), Programmable)
	aB, bB, cB, _ := setupData(m)
	res := m.Run(m.NewInterp(buildIndirectSum(t, false), aB, bB, cB, testN))
	seq, stats, digest := m.Eng.Seq(), m.Core.Stats, m.Digest()

	m.Release()
	if m.Eng.Seq() != seq || !reflect.DeepEqual(m.Core.Stats, stats) || m.Digest() != digest {
		t.Errorf("Release changed what stays readable: seq %d→%d, digest %#x→%#x", seq, m.Eng.Seq(), digest, m.Digest())
	}
	if again := m.Finish(); !reflect.DeepEqual(again, res) {
		t.Errorf("Finish after Release = %+v, want %+v", again, res)
	}
	for name, access := range map[string]func(){
		"Backing.Read64":  func() { m.Backing.Read64(aB) },
		"Backing.Write64": func() { m.Backing.Write64(aB, 1) },
		"L1.Access": func() {
			m.L1.Access(&mem.Request{Addr: aB, Kind: mem.Load, PC: -1, Tag: mem.NoTag, TimedAt: -1})
		},
	} {
		if !panics(access) {
			t.Errorf("%s after Release did not panic", name)
		}
	}
	if _, err := m.Fork(); err == nil {
		t.Error("a released machine forked")
	}
	m.Release() // a second Release is harmless
}

func panics(f func()) (yes bool) {
	defer func() { yes = recover() != nil }()
	f()
	return false
}
