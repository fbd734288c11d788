package system

import (
	"fmt"
	"reflect"
	"testing"
)

// sharedRef returns the path of the first field under t (named path) through
// which two copies of a value would share memory or behaviour — a pointer,
// slice, map, func, chan or interface — or "" if t is plain value state.
func sharedRef(t reflect.Type, path string) string {
	switch t.Kind() {
	case reflect.Pointer, reflect.UnsafePointer, reflect.Slice, reflect.Map,
		reflect.Func, reflect.Chan, reflect.Interface:
		return fmt.Sprintf("%s (%s)", path, t)
	case reflect.Array:
		return sharedRef(t.Elem(), path+"[]")
	case reflect.Struct:
		for i := 0; i < t.NumField(); i++ {
			if p := sharedRef(t.Field(i).Type, path+"."+t.Field(i).Name); p != "" {
				return p
			}
		}
	}
	return ""
}

// TestForkStateIsPlainValue checks the structs a fork copies by one
// assignment: each must be embedded in its component (so CopyStateFrom's
// `dst.state = src.state` takes every field, present and future) and hold
// nothing a parent and its fork could share.
func TestForkStateIsPlainValue(t *testing.T) {
	m := New(DefaultConfig(), Adaptive) // the one scheme that builds every component
	mshr, _ := reflect.TypeOf(m.L1).Elem().FieldByName("mshrSlots")
	for _, c := range []struct {
		owner reflect.Type
		state string
	}{
		{reflect.TypeOf(m.Core).Elem(), "coreState"},
		{reflect.TypeOf(m.L1).Elem(), "cacheState"},
		{mshr.Type.Elem(), "mshrState"},
		{reflect.TypeOf(m.TLB).Elem(), "tlbState"},
		{reflect.TypeOf(m.DRAM).Elem(), "dramState"},
		{reflect.TypeOf(m.PF).Elem(), "pfState"},
		{reflect.TypeOf(m.Baseline).Elem(), "state"},
	} {
		f, ok := c.owner.FieldByName(c.state)
		if !ok || !f.Anonymous {
			t.Errorf("%s does not embed a %s", c.owner, c.state)
			continue
		}
		if p := sharedRef(f.Type, c.state); p != "" {
			t.Errorf("%s: fork-copied state holds a reference at %s; copy it explicitly beside the struct", c.owner, p)
		}
	}
	// The check itself must see through arrays and nested structs.
	type inner struct{ q [2][]int }
	if p := sharedRef(reflect.TypeOf(struct {
		a int
		b [3]inner
	}{}), "s"); p != "s.b[].q[] ([]int)" {
		t.Errorf("sharedRef missed a nested slice: %q", p)
	}
}
