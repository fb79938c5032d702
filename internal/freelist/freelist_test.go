package freelist

import (
	"runtime"
	"sync"
	"testing"
)

// TestBound: a list keeps the first runtime.GOMAXPROCS(0) values put into it
// and drops the rest, and gives them back most recent first.
func TestBound(t *testing.T) {
	var l List[int]
	if _, ok := l.Get(); ok {
		t.Fatal("Get on an empty list reported a value")
	}
	procs := runtime.GOMAXPROCS(0)
	for v := 0; v < procs+3; v++ {
		l.Put(v)
	}
	for want := procs - 1; want >= 0; want-- {
		got, ok := l.Get()
		if !ok || got != want {
			t.Fatalf("Get = %d, %v; want %d, true", got, ok, want)
		}
	}
	if got, ok := l.Get(); ok {
		t.Fatalf("list kept %d values past its bound of %d (Get = %d)", procs+1, procs, got)
	}
}

// TestConcurrent: values moved through one list by several goroutines at
// once are each handed to one getter only.
func TestConcurrent(t *testing.T) {
	var l List[*int]
	const workers, rounds = 4, 1000
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for r := 0; r < rounds; r++ {
				p, ok := l.Get()
				if !ok {
					p = new(int)
				}
				*p = w
				for k := 0; k < 10; k++ {
					if *p != w {
						t.Errorf("worker %d: a value it holds was handed to worker %d", w, *p)
						return
					}
				}
				l.Put(p)
			}
		}()
	}
	wg.Wait()
}
