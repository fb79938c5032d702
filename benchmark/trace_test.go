package main

import (
	"reflect"
	"testing"
)

func TestSelfTime(t *testing.T) {
	spans := []span{
		{start: 0, end: 100, parent: -1},   // 0: root
		{start: 10, end: 30, parent: 0},    // 1: overlaps 2
		{start: 20, end: 50, parent: 0},    // 2
		{start: 90, end: 120, parent: 0},   // 3: sticks out of the root
		{start: 12, end: 18, parent: 1},    // 4: grandchild
		{start: 200, end: 260, parent: -1}, // 5: another root, no children
		{start: 210, end: 210, parent: 5},  // 6: empty child
	}
	// Root: 100 minus the union [10,50] ∪ [90,100] = 50. Span 1: 20 minus
	// its grandchild's 6. Span 3 counts whole in itself, only 10 in the root.
	want := []int64{50, 14, 30, 30, 6, 60, 0}
	if got := selfTimes(spans); !reflect.DeepEqual(got, want) {
		t.Errorf("selfTimes = %v, want %v", got, want)
	}
}

func TestLayerTotalsSkipWarmUp(t *testing.T) {
	spans := []span{
		{start: 0, end: 10, parent: -1, req: -1, name: spanRequest},
		{start: 2, end: 5, parent: 0, req: -1, name: spanDecode},
		{start: 20, end: 40, parent: -1, req: 0, name: spanRequest},
		{start: 22, end: 30, parent: 2, req: 0, name: spanDecode},
	}
	var lt layerTotals
	lt.add(spans)
	if lt.calls[spanDecode] != 1 || lt.selfNs[spanDecode] != 8 || lt.selfNs[spanRequest] != 12 {
		t.Errorf("totals: decode %d calls %d ns, request %d ns; want 1, 8, 12",
			lt.calls[spanDecode], lt.selfNs[spanDecode], lt.selfNs[spanRequest])
	}
	if w := wallNs(spans, spanRequest); w != 20 {
		t.Errorf("wallNs = %d, want 20", w)
	}
}

func TestNilTracerRecordsNothing(t *testing.T) {
	var tr *tracer
	id := tr.begin(spanDecode, -1, 0)
	tr.end(id)
	tr.fill(id, "naive", fillSample{}.counters)
	if id != -1 || tr.duration(id) != 0 {
		t.Errorf("nil tracer returned span %d", id)
	}
}
