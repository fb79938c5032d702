package blitzsplit

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"math"
	"math/rand"
	"testing"

	"blitzsplit/internal/testutil"
)

// TestEngineHitRederivesColdNumbers is the property behind shape-only cache
// entries: across 3,000 random queries, the five test models and the bushy,
// left-deep, CCP (Auto) and ladder paths, a permuted resubmission that hits
// the cache must carry on every plan node the cardinality and cost of the
// cold run that stored the entry, bit for bit. Both plans are relabelings
// of one canonical plan, so walking them in step pairs corresponding nodes;
// an automorphic tie can map a node to other relations, never to other
// numbers.
func TestEngineHitRederivesColdNumbers(t *testing.T) {
	rng := rand.New(rand.NewSource(2501))
	models := testutil.Models()
	eng := New(EngineOptions{})
	const queries = 3000
	hits := 0
	for i := 0; i < queries; i++ {
		cq := testutil.RandomQuery(rng, 10)
		n := len(cq.Cards)
		var edges [][3]float64
		if cq.Graph != nil {
			for _, e := range cq.Graph.Edges() {
				edges = append(edges, [3]float64{float64(e.A), float64(e.B), e.Selectivity})
			}
		}
		model := models[i%len(models)].Name()
		opts := []Option{WithCostModel(model)}
		path := [...]string{"bushy", "left-deep", "auto", "ladder"}[(i/len(models))%4]
		switch path {
		case "left-deep":
			opts = append(opts, WithLeftDeep())
		case "auto":
			opts = append(opts, WithEnumerator(EnumeratorAuto))
		case "ladder":
			opts = append(opts, WithDeadlineLadder())
		}
		perm := rng.Perm(n)
		cold, err := eng.Optimize(nil, permutedQuery(t, cq.Cards, edges, identityPerm(n)), opts...)
		if errors.Is(err, ErrNoPlan) {
			continue
		}
		if err != nil {
			t.Fatalf("query %d (%s, %s): %v", i, model, path, err)
		}
		if cold.Cached {
			continue // an earlier query had this shape
		}
		hit, err := eng.Optimize(nil, permutedQuery(t, cq.Cards, edges, perm), opts...)
		if err != nil {
			t.Fatalf("query %d (%s, %s) resubmitted: %v", i, model, path, err)
		}
		if !hit.Cached {
			continue // a tie that is no automorphism split the fingerprint
		}
		hits++
		if err := sameNumbers(cold.Plan, hit.Plan); err != nil {
			t.Fatalf("query %d (n=%d, %s, %s): %v\ncold:\n%v\nhit:\n%v", i, n, model, path, err, cold.Plan, hit.Plan)
		}
		if math.Float64bits(hit.Cost) != math.Float64bits(cold.Cost) ||
			math.Float64bits(hit.Cardinality) != math.Float64bits(cold.Cardinality) {
			t.Fatalf("query %d: hit cost %v card %v, cold %v %v", i, hit.Cost, hit.Cardinality, cold.Cost, cold.Cardinality)
		}
	}
	t.Logf("%d of %d queries hit on resubmission", hits, queries)
	if hits < queries/2 {
		t.Fatalf("only %d of %d resubmissions hit", hits, queries)
	}
}

// sameNumbers walks two relabelings of one plan in step and demands
// bit-equal cardinalities and costs at every node.
func sameNumbers(cold, hit *Plan) error {
	if cold.IsLeaf() != hit.IsLeaf() || cold.Set.Count() != hit.Set.Count() {
		return fmt.Errorf("shapes differ at %v / %v", cold.Set, hit.Set)
	}
	if math.Float64bits(cold.Card) != math.Float64bits(hit.Card) ||
		math.Float64bits(cold.Cost) != math.Float64bits(hit.Cost) {
		return fmt.Errorf("node %v: hit card %v cost %v, cold card %v cost %v",
			hit.Set, hit.Card, hit.Cost, cold.Card, cold.Cost)
	}
	if cold.IsLeaf() {
		return nil
	}
	if err := sameNumbers(cold.Left, hit.Left); err != nil {
		return err
	}
	return sameNumbers(cold.Right, hit.Right)
}

// TestEngineRefusesMismatchedHit: an entry whose stored root cost is not
// what its shape re-derives to (here one restored from a snapshot whose cost
// bits were altered, with a valid checksum) is not served. The request runs
// cold, answers the true optimum and overwrites the entry, which the next
// request serves.
func TestEngineRefusesMismatchedHit(t *testing.T) {
	const n = 8
	cards, edges := starQuery(n)
	q := permutedQuery(t, cards, edges, identityPerm(n))
	src := New(EngineOptions{})
	cold, err := src.Optimize(nil, q)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if _, err := src.WriteSnapshot(&buf); err != nil {
		t.Fatal(err)
	}
	// One record: header, uvarint length, payload, CRC-32C. The payload
	// opens with uvarint(len(key)), the key, then the cost's 8 bytes.
	raw := buf.Bytes()
	const header = 8
	size, m := binary.Uvarint(raw[header:])
	payload := raw[header+m : header+m+int(size)]
	keyLen, k := binary.Uvarint(payload)
	costAt := k + int(keyLen)
	binary.LittleEndian.PutUint64(payload[costAt:], math.Float64bits(cold.Cost*2))
	binary.LittleEndian.PutUint32(raw[header+m+int(size):], crc32.Checksum(payload, crc32.MakeTable(crc32.Castagnoli)))

	dst := New(EngineOptions{})
	if ls, err := dst.LoadSnapshot(bytes.NewReader(raw)); err != nil || ls.Loaded != 1 {
		t.Fatalf("restore: %+v, %v", ls, err)
	}
	first, err := dst.Optimize(nil, q)
	if err != nil {
		t.Fatal(err)
	}
	if first.Cached || first.Cost != cold.Cost {
		t.Fatalf("mismatched entry served: cached %v cost %v, want a cold run at %v", first.Cached, first.Cost, cold.Cost)
	}
	if st := dst.Stats().Cache; st.Hits != 0 || st.Misses != 1 {
		t.Fatalf("after the refused hit: Hits %d Misses %d, want 0 and 1", st.Hits, st.Misses)
	}
	second, err := dst.Optimize(nil, q)
	if err != nil {
		t.Fatal(err)
	}
	if !second.Cached || second.Cost != cold.Cost {
		t.Fatalf("overwritten entry: cached %v cost %v, want a hit at %v", second.Cached, second.Cost, cold.Cost)
	}
	if st := dst.Stats().Cache; st.Hits != 1 || st.Misses != 1 {
		t.Fatalf("after the next request: Hits %d Misses %d, want 1 and 1", st.Hits, st.Misses)
	}
}
