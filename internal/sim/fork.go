package sim

import (
	"fmt"
	"reflect"
)

// Forking a machine rebuilds every component, and therefore every handler
// adapter, with the same constructor calls in the same order. Each
// constructor hands the adapters it creates to its engine with Own, so the
// parent's and the fork's engines hold the same adapters at the same
// positions, and a handler captured in parent state — a pending event, an
// MSHR waiter, a translation record — is translated by finding it in the
// parent's list and taking the fork's handler at that position.
//
// Handlers are small adapter structs carrying one pointer back to their
// component, scheduled by value: two copies of an adapter compare equal, so
// the search finds the owned one whichever copy the state captured.

// Own records hs as handler adapters of the machine built on e. A handler
// that can be pending across a fork must be owned; a nil or non-comparable
// (func-typed) handler cannot be, and panics.
func (e *Engine) Own(hs ...Handler) {
	for _, h := range hs {
		if h == nil || !reflect.TypeOf(h).Comparable() {
			panic(fmt.Sprintf("sim: Engine.Own of a %T handler; only comparable typed handlers can be paired", h))
		}
	}
	e.owned = append(e.owned, hs...)
}

// paired checks that e and src own the same number of handlers with the same
// dynamic type at every position, which holds whenever both machines were
// built by the same constructors.
func (e *Engine) paired(src *Engine) error {
	if len(e.owned) != len(src.owned) {
		return fmt.Errorf("sim: fork pairs an engine owning %d handlers with one owning %d", len(src.owned), len(e.owned))
	}
	for i, s := range src.owned {
		if reflect.TypeOf(s) != reflect.TypeOf(e.owned[i]) {
			return fmt.Errorf("sim: fork pairs owned handler %d, a %T, with a %T", i, s, e.owned[i])
		}
	}
	return nil
}

// Counterpart translates h, a handler captured in the state of the machine
// built on src — a pending event, a waiter list, a record table, a parked
// request — into the handler the machine built on e owns at the same
// position; nil maps to nil. A handler src does not own (a func-typed
// closure, as tests schedule, or an adapter its constructor forgot to Own) is
// bound to parent state and cannot be translated: an error, never a silent
// mis-route.
func (e *Engine) Counterpart(src *Engine, h Handler) (Handler, error) {
	if h == nil {
		return nil, nil
	}
	if err := e.paired(src); err != nil {
		return nil, err
	}
	for i, s := range src.owned {
		if s == h {
			return e.owned[i], nil
		}
	}
	return nil, fmt.Errorf("sim: cannot fork with a %T handler pending that its engine does not own", h)
}

// Seq exposes the schedule sequence counter (total events ever scheduled).
// Forks copy it so tie-breaking of same-tick events stays byte-identical,
// and checkpoints fold it into their state digest.
func (e *Engine) Seq() uint64 { return e.seq }

// CopyFrom makes e an exact copy of src's scheduling state — current time,
// schedule sequence counter, and the pending events — with every stored
// handler replaced by its counterpart. The wheel's slab, slot lists, free list
// and occupancy bitmaps and the overflow heap's backing array are copied
// verbatim, so node indices, FIFO order and heap order all carry over and the
// fork pops events in byte-identically the same order the parent would have.
// Payload words are copied verbatim: they name slots and indices in component
// state the caller is responsible for copying in parallel.
func (e *Engine) CopyFrom(src *Engine) error {
	if err := e.paired(src); err != nil {
		return err
	}
	e.now = src.now
	e.seq = src.seq
	e.nodes = append(e.nodes[:0], src.nodes...)
	e.free = src.free
	e.near = src.near
	e.slots = src.slots
	e.occ = src.occ
	e.sum = src.sum
	e.far.ev = append(e.far.ev[:0], src.far.ev...)
	translate := func(at Ticks, h *Handler) error {
		d, err := e.Counterpart(src, *h)
		if err != nil {
			return fmt.Errorf("event at t=%d: %w", at, err)
		}
		*h = d
		return nil
	}
	// A released node holds a nil handler, which maps to nil.
	for i := range e.nodes {
		if err := translate(e.nodes[i].at, &e.nodes[i].h); err != nil {
			return err
		}
	}
	for i := range e.far.ev {
		if err := translate(e.far.ev[i].at, &e.far.ev[i].h); err != nil {
			return err
		}
	}
	return nil
}
