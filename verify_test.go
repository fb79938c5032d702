package blitzsplit

// Tests for Result.Verify, the facade entry point into the internal/check
// correctness harness.

import (
	"strings"
	"testing"
)

func verifyQuery(t *testing.T) *Query {
	t.Helper()
	q := NewQuery()
	q.MustAddRelation("orders", 1e5)
	q.MustAddRelation("lineitem", 6e5)
	q.MustAddRelation("customer", 1.5e4)
	q.MustAddRelation("region", 25)
	q.MustJoin("orders", "lineitem", 1e-5)
	q.MustJoin("customer", "orders", 6.7e-5)
	return q
}

func TestVerifyOnAllEntryPoints(t *testing.T) {
	q := verifyQuery(t)

	for _, opts := range [][]Option{
		nil,
		{WithCostModel("sortmerge")},
		{WithCostModel("min(sortmerge,dnl)"), WithAlgorithms()},
		{WithLeftDeep(), WithCostModel("dnl")},
		{WithParallelism(2), WithCostThreshold(10)},
	} {
		res, err := q.Optimize(opts...)
		if err != nil {
			t.Fatal(err)
		}
		if err := res.Verify(); err != nil {
			t.Errorf("Optimize(%d opts): Verify: %v", len(opts), err)
		}
	}
}

func TestVerifyCatchesTampering(t *testing.T) {
	res, err := verifyQuery(t).Optimize()
	if err != nil {
		t.Fatal(err)
	}

	tampered := *res
	tampered.Cost *= 1.5
	if err := tampered.Verify(); err == nil {
		t.Error("Verify accepted a doctored total cost")
	}

	broken := *res
	broken.Plan = res.Plan.Left
	err = broken.Verify()
	if err == nil {
		t.Error("Verify accepted a truncated plan")
	} else if !strings.Contains(err.Error(), "leaves") && !strings.Contains(err.Error(), "root") {
		t.Errorf("truncated plan rejected for an unexpected reason: %v", err)
	}
}
