// Package freelist is the bounded free list behind execution's memory reuse:
// engine's key-column slabs and exec's executors. A list keeps at most
// runtime.GOMAXPROCS(0) values, one per goroutine that can run at once, so
// what it holds is bounded by the processor count times the largest value a
// caller agrees to keep, whatever the request rate. A sync.Pool would keep
// its victim generation as well, about twice the memory, for no more reuse.
package freelist

import (
	"runtime"
	"sync"
)

// List is a LIFO free list of values of type T. The zero List is empty and
// ready to use; it is safe for concurrent use.
type List[T any] struct {
	mu   sync.Mutex
	free []T
}

// Get removes and returns the value put most recently, or the zero T and
// false when the list is empty.
func (l *List[T]) Get() (T, bool) {
	var v T
	l.mu.Lock()
	defer l.mu.Unlock()
	k := len(l.free) - 1
	if k < 0 {
		return v, false
	}
	v, l.free[k] = l.free[k], v
	l.free = l.free[:k]
	return v, true
}

// Put keeps v for a later Get unless the list already holds
// runtime.GOMAXPROCS(0) values, in which case v is left to the garbage
// collector.
func (l *List[T]) Put(v T) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if len(l.free) < runtime.GOMAXPROCS(0) {
		l.free = append(l.free, v)
	}
}
