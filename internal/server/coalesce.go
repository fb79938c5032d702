package server

import "sync"

// flightGroup is the request-coalescing primitive: at most one in-flight
// optimization per key, with any number of followers waiting on it. It is a
// minimal singleflight — followers share only the *event* of completion, not
// the leader's result: after the leader finishes, each follower re-issues
// its own Engine.Optimize, which the plan cache serves in microseconds,
// relabeled to the follower's own relation numbering. That keeps coalescing
// correct even when two isomorphic-but-differently-labeled queries share a
// plan-cache key, and keeps every response bit-identical to a cold run of
// the same request.
type flightGroup struct {
	mu sync.Mutex
	m  map[string]chan struct{}
}

func (g *flightGroup) init() {
	g.m = make(map[string]chan struct{})
}

// join registers interest in key. The first caller becomes the leader
// (leader == true) and must call leave(key) when its optimization — success
// or failure — is done. Every other caller gets leader == false and a
// channel that closes when the leader leaves.
func (g *flightGroup) join(key string) (leader bool, wait <-chan struct{}) {
	g.mu.Lock()
	defer g.mu.Unlock()
	if ch, ok := g.m[key]; ok {
		return false, ch
	}
	ch := make(chan struct{})
	g.m[key] = ch
	return true, ch
}

// leave ends key's flight, releasing every follower. The next request for
// the same key starts a fresh flight (and normally hits the plan cache
// instead of optimizing).
func (g *flightGroup) leave(key string) {
	g.mu.Lock()
	ch := g.m[key]
	delete(g.m, key)
	g.mu.Unlock()
	if ch != nil {
		close(ch)
	}
}
