// Package cluster implements the fingerprint-sharded serving ring behind
// distributed blitzd: a consistent-hash ring over canonical query
// fingerprints (internal/canon) with static membership, plus the HTTP peer
// client the serving layer uses to forward requests, fill caches, and stream
// warm handoffs between nodes.
//
// Every query shape has exactly one home shard: the ring hashes the shape's
// canonical fingerprint — not the request bytes — so all relation
// renumberings of the same query land on the same node, and cluster-wide
// there is one coalescing point and one cache-resident plan per shape. The
// hash is FNV-1a, a fixed published function, so every node computes the
// same owner from the same membership with no shared state and no
// coordination.
package cluster

import (
	"fmt"
	"hash/fnv"
	"net/url"
	"sort"
	"strings"
)

// DefaultVirtualNodes is the number of points NewRing places per node. 128
// points per node keeps the expected per-node load share within a few
// percent of uniform for small static clusters. Every node of every process
// uses the same count, which is what lets Digest leave it out.
const DefaultVirtualNodes = 128

// Node is one cluster member: a stable identifier and the base URL peers use
// to reach it (scheme://host:port, no trailing slash).
type Node struct {
	ID  string
	URL string
}

// ParsePeers parses a -peers flag value: comma-separated id=url pairs, e.g.
//
//	n1=http://127.0.0.1:7070,n2=http://127.0.0.1:7071
//
// IDs must be unique and non-empty; URLs must be absolute http or https with
// a host. The returned slice preserves flag order (the ring itself is
// order-independent).
func ParsePeers(s string) ([]Node, error) {
	if strings.TrimSpace(s) == "" {
		return nil, nil
	}
	var nodes []Node
	seen := make(map[string]bool)
	for _, part := range strings.Split(s, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		id, raw, ok := strings.Cut(part, "=")
		id = strings.TrimSpace(id)
		raw = strings.TrimSpace(raw)
		if !ok || id == "" || raw == "" {
			return nil, fmt.Errorf("cluster: peer %q is not id=url", part)
		}
		if strings.ContainsAny(id, "#\x00") {
			return nil, fmt.Errorf("cluster: peer id %q contains a reserved character", id)
		}
		if seen[id] {
			return nil, fmt.Errorf("cluster: duplicate peer id %q", id)
		}
		u, err := url.Parse(raw)
		if err != nil {
			return nil, fmt.Errorf("cluster: peer %s: %v", id, err)
		}
		if (u.Scheme != "http" && u.Scheme != "https") || u.Host == "" {
			return nil, fmt.Errorf("cluster: peer %s: url %q must be absolute http(s)", id, raw)
		}
		seen[id] = true
		nodes = append(nodes, Node{ID: id, URL: strings.TrimRight(raw, "/")})
	}
	return nodes, nil
}

// Ring is an immutable consistent-hash ring over a static membership. Build
// one with NewRing; all methods are safe for concurrent use.
type Ring struct {
	points []point // sorted by hash
	nodes  []Node  // sorted by ID
	byID   map[string]Node
	digest string
}

type point struct {
	hash uint64
	node int // index into nodes
}

// NewRing builds a ring with DefaultVirtualNodes points per node. The ring
// depends only on the membership set — input order never changes ownership.
// An empty membership yields a ring whose Owner returns the zero Node.
func NewRing(nodes []Node) *Ring {
	r := &Ring{
		nodes: append([]Node(nil), nodes...),
		byID:  make(map[string]Node, len(nodes)),
	}
	sort.Slice(r.nodes, func(i, j int) bool { return r.nodes[i].ID < r.nodes[j].ID })
	for _, n := range r.nodes {
		r.byID[n.ID] = n
	}
	r.points = make([]point, 0, len(r.nodes)*DefaultVirtualNodes)
	for i, n := range r.nodes {
		for v := 0; v < DefaultVirtualNodes; v++ {
			// The point hash covers only the ID, never the URL: re-advertising
			// a node at a new address must not shuffle ownership.
			r.points = append(r.points, point{hash: pointHash(n.ID, v), node: i})
		}
	}
	sort.Slice(r.points, func(i, j int) bool {
		a, b := r.points[i], r.points[j]
		if a.hash != b.hash {
			return a.hash < b.hash
		}
		// Colliding points order by node ID so ownership stays deterministic
		// regardless of membership input order.
		return r.nodes[a.node].ID < r.nodes[b.node].ID
	})
	r.digest = digest(r.nodes)
	return r
}

// pointHash is finalized FNV-1a over "id#vnode". FNV is deliberate: the
// owner of a fingerprint must be the same on every node of every process, so
// the hash must be a fixed published function, not a per-process seeded one
// (hash/maphash).
func pointHash(id string, vnode int) uint64 {
	h := fnv.New64a()
	h.Write([]byte(id))
	h.Write([]byte{'#'})
	var buf [4]byte
	buf[0] = byte(vnode)
	buf[1] = byte(vnode >> 8)
	buf[2] = byte(vnode >> 16)
	buf[3] = byte(vnode >> 24)
	h.Write(buf[:])
	return mix64(h.Sum64())
}

// mix64 is the murmur3 finalizer. Raw FNV-1a over short, nearly identical
// inputs ("n1#0", "n1#1", …) leaves its high bits badly clustered — measured
// on a 3-node ring one node owned 84% of the arc — and consistent hashing
// keys entirely on uniform point placement. The finalizer's two
// multiply-xorshift rounds give full avalanche while staying a fixed
// published function every node computes identically.
func mix64(h uint64) uint64 {
	h ^= h >> 33
	h *= 0xff51afd7ed558ccd
	h ^= h >> 33
	h *= 0xc4ceb9fe1a85ec53
	h ^= h >> 33
	return h
}

// Owner returns the node owning fingerprint fp: the first ring point at or
// clockwise after FNV-1a(fp). The zero Node on an empty ring.
func (r *Ring) Owner(fp []byte) Node {
	if len(r.points) == 0 {
		return Node{}
	}
	h := fnv.New64a()
	h.Write(fp)
	target := mix64(h.Sum64())
	i := sort.Search(len(r.points), func(i int) bool { return r.points[i].hash >= target })
	if i == len(r.points) {
		i = 0
	}
	return r.nodes[r.points[i].node]
}

// Nodes returns the membership sorted by ID. The caller must not modify the
// returned slice.
func (r *Ring) Nodes() []Node { return r.nodes }

// Lookup returns the node with the given ID.
func (r *Ring) Lookup(id string) (Node, bool) {
	n, ok := r.byID[id]
	return n, ok
}

// Size is the number of members.
func (r *Ring) Size() int { return len(r.nodes) }

// Digest is a short hex fingerprint of the membership (IDs and URLs). Two
// rings with the same digest assign every fingerprint identically: the point
// count per node is the fixed DefaultVirtualNodes, so the membership alone
// decides ownership. The warm handoff protocol exchanges digests so a node
// never streams entries filtered by a ring its peer does not share.
func (r *Ring) Digest() string { return r.digest }

func digest(nodes []Node) string {
	h := fnv.New64a()
	for _, n := range nodes {
		h.Write([]byte(n.ID))
		h.Write([]byte{0})
		h.Write([]byte(n.URL))
		h.Write([]byte{0})
	}
	return fmt.Sprintf("%016x", h.Sum64())
}
