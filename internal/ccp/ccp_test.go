package ccp_test

import (
	"testing"

	"blitzsplit/internal/bitset"
	"blitzsplit/internal/ccp"
	"blitzsplit/internal/joingraph"
)

// topologies are the shapes every enumeration test sweeps; edges(n) returns
// nil when the topology is undefined at n.
var topologies = []struct {
	name  string
	edges func(n int) []joingraph.Pair
}{
	{"chain", joingraph.AppendixChainEdges},
	{"cycle", func(n int) []joingraph.Pair {
		if n < 3 {
			return nil
		}
		return joingraph.CycleEdges(n)
	}},
	{"star", func(n int) []joingraph.Pair {
		if n < 2 {
			return nil
		}
		return joingraph.StarEdges(n, n-1)
	}},
	{"clique", joingraph.CliqueEdges},
	{"tree", joingraph.TreeEdges},
}

func adjacencyFor(t *testing.T, edges func(n int) []joingraph.Pair, n int) (ccp.Adjacency, bool) {
	t.Helper()
	pairs := edges(n)
	if n >= 2 && pairs == nil {
		return nil, false
	}
	adj := make(ccp.Adjacency, n)
	for _, p := range pairs {
		adj[p[0]] |= bitset.Set(1) << uint(p[1])
		adj[p[1]] |= bitset.Set(1) << uint(p[0])
	}
	return adj, true
}

// connectedCountFormula gives the closed-form connected-subset count
// (singletons included) where one exists; -1 otherwise.
func connectedCountFormula(topo string, n int) int64 {
	switch topo {
	case "chain":
		return int64(n) * int64(n+1) / 2
	case "cycle":
		return int64(n)*int64(n-1) + 1
	case "star":
		return int64(1)<<uint(n-1) + int64(n) - 1
	case "clique":
		return int64(1)<<uint(n) - 1
	}
	return -1
}

// countCsg counts EnumerateCsg's emissions.
func countCsg(adj ccp.Adjacency) uint64 {
	var count uint64
	adj.EnumerateCsg(func(bitset.Set) bool {
		count++
		return true
	})
	return count
}

func TestEnumerateCsgCounts(t *testing.T) {
	for _, topo := range topologies {
		for n := 2; n <= 12; n++ {
			adj, ok := adjacencyFor(t, topo.edges, n)
			if !ok {
				continue
			}
			want := connectedCountFormula(topo.name, n)
			if want < 0 {
				continue
			}
			if got := countCsg(adj); got != uint64(want) {
				t.Errorf("%s/n=%d: EnumerateCsg emitted %d sets, want %d", topo.name, n, got, want)
			}
		}
	}
}

// TestEnumerateCsgMatchesReference proves the enumeration emits exactly the
// BFS-connected subsets, each exactly once, for every topology at n ≤ 8.
func TestEnumerateCsgMatchesReference(t *testing.T) {
	for _, topo := range topologies {
		for n := 2; n <= 8; n++ {
			adj, ok := adjacencyFor(t, topo.edges, n)
			if !ok {
				continue
			}
			seen := map[bitset.Set]int{}
			adj.EnumerateCsg(func(s bitset.Set) bool {
				seen[s]++
				return true
			})
			for s := bitset.Set(1); s < bitset.Set(1)<<uint(n); s++ {
				want := 0
				if adj.Connected(s) {
					want = 1
				}
				if seen[s] != want {
					t.Fatalf("%s/n=%d: set %b emitted %d times, want %d", topo.name, n, s, seen[s], want)
				}
			}
		}
	}
}

func TestEnumerateCsgEarlyStop(t *testing.T) {
	adj, _ := adjacencyFor(t, joingraph.CliqueEdges, 6)
	calls := 0
	complete := adj.EnumerateCsg(func(bitset.Set) bool {
		calls++
		return calls < 5
	})
	if complete {
		t.Error("EnumerateCsg reported completion despite an early stop")
	}
	if calls != 5 {
		t.Errorf("visit called %d times, want 5", calls)
	}
}

func TestMarkConnectedMatchesBFS(t *testing.T) {
	var buf []uint64
	for _, topo := range topologies {
		for n := 2; n <= 8; n++ {
			adj, ok := adjacencyFor(t, topo.edges, n)
			if !ok {
				continue
			}
			var count uint64
			buf, count = ccp.MarkConnected(buf, adj) // exercises buffer reuse across shapes
			var want uint64
			for s := bitset.Set(1); s < bitset.Set(1)<<uint(n); s++ {
				bit := buf[s>>6]&(1<<(uint(s)&63)) != 0
				conn := adj.Connected(s)
				if bit != conn {
					t.Fatalf("%s/n=%d: bitmap[%b] = %v, BFS says %v", topo.name, n, s, bit, conn)
				}
				if conn {
					want++
				}
			}
			if count != want {
				t.Errorf("%s/n=%d: MarkConnected count = %d, want %d", topo.name, n, count, want)
			}
		}
	}
}

func TestMarkConnectedHalt(t *testing.T) {
	adj, _ := adjacencyFor(t, joingraph.CliqueEdges, 12) // 4095 connected sets
	full := countCsg(adj)
	_, count := ccp.MarkConnectedHalt(nil, adj, func() bool { return true })
	if count >= full {
		t.Fatalf("halted marking emitted %d of %d sets", count, full)
	}
	if count == 0 || count%1024 != 0 {
		t.Errorf("halt should trigger on a 1024-emission stride, stopped at %d", count)
	}
}

// TestCountCsgCmpPairs checks the pair count against a brute-force reference
// (every subset, every bipartition, both halves BFS-connected) and the chain
// closed form n(n²−1)/6.
func TestCountCsgCmpPairs(t *testing.T) {
	for _, topo := range topologies {
		for n := 2; n <= 8; n++ {
			adj, ok := adjacencyFor(t, topo.edges, n)
			if !ok {
				continue
			}
			var want uint64
			for s := bitset.Set(3); s < bitset.Set(1)<<uint(n); s++ {
				if s&(s-1) == 0 || !adj.Connected(s) {
					continue
				}
				low := s & -s
				rest := s ^ low
				for sub := bitset.Set(0); ; sub = (sub - rest) & rest {
					lhs := sub | low
					if lhs == s {
						break
					}
					if adj.Connected(lhs) && adj.Connected(s^lhs) {
						want++
					}
				}
			}
			if got := adj.CountCsgCmpPairs(); got != want {
				t.Errorf("%s/n=%d: CountCsgCmpPairs = %d, brute force says %d", topo.name, n, got, want)
			}
			if topo.name == "chain" {
				formula := uint64(n) * uint64(n*n-1) / 6
				if want != formula {
					t.Errorf("chain/n=%d: brute force %d disagrees with n(n²−1)/6 = %d", n, want, formula)
				}
			}
		}
	}
}

func TestGraphAdjacency(t *testing.T) {
	cards := joingraph.CardinalityLadder(7, 100, 0.5)
	g := joingraph.Build(joingraph.CycleEdges(7), cards)
	adj := ccp.GraphAdjacency(g)
	if len(adj) != 7 {
		t.Fatalf("adjacency over %d vertices, want 7", len(adj))
	}
	for i := 0; i < 7; i++ {
		if adj[i] != g.Neighbors(i) {
			t.Errorf("adj[%d] = %b, graph says %b", i, adj[i], g.Neighbors(i))
		}
	}
}

func TestConnectedEdgeCases(t *testing.T) {
	adj := make(ccp.Adjacency, 4) // no edges at all
	if !adj.Connected(0) || !adj.Connected(1) || !adj.Connected(8) {
		t.Error("empty set and singletons must be connected")
	}
	if adj.Connected(0b11) {
		t.Error("edgeless pair reported connected")
	}
}
