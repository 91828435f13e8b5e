package exec

import (
	"fmt"
	"runtime/debug"
)

// PanicError is a panic recovered at an isolation boundary (an engine entry
// point) converted into an error value. Origin
// names the boundary that recovered it; Stack is the panicking goroutine's
// stack, captured at recovery.
type PanicError struct {
	Origin string
	Value  any
	Stack  []byte
}

func (e *PanicError) Error() string {
	return fmt.Sprintf("exec: panic in %s: %v", e.Origin, e.Value)
}

// CapturePanic normalizes a recover() value into a *PanicError. A value
// that already is one (a panic re-surfaced through a second boundary)
// passes through unchanged, keeping the original origin and
// stack.
func CapturePanic(r any, origin string) *PanicError {
	if pe, ok := r.(*PanicError); ok {
		return pe
	}
	return &PanicError{Origin: origin, Value: r, Stack: debug.Stack()}
}
