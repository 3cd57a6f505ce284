package harness

import (
	"reflect"
	"testing"
)

// TestRepJobSharesNoMemory holds repJob to workerScratch's rule: a job
// carries its replicate's inputs by value, so nothing a worker advances
// during the replicate was allocated by the dispatcher next to the other
// jobs of its wave. A pointer, slice, map, interface, channel or func
// anywhere in repJob, nested fields included, would reintroduce that
// sharing.
func TestRepJobSharesNoMemory(t *testing.T) {
	var walk func(path string, typ reflect.Type)
	walk = func(path string, typ reflect.Type) {
		switch typ.Kind() {
		case reflect.Pointer, reflect.UnsafePointer, reflect.Slice, reflect.Map,
			reflect.Interface, reflect.Chan, reflect.Func:
			t.Errorf("%s is a %s: repJob must hold its replicate's state by value", path, typ.Kind())
		case reflect.Array:
			walk(path+"[]", typ.Elem())
		case reflect.Struct:
			for i := range typ.NumField() {
				f := typ.Field(i)
				walk(path+"."+f.Name, f.Type)
			}
		}
	}
	walk("repJob", reflect.TypeOf(repJob{}))
}
