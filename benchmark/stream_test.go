package main

import (
	"bytes"
	"fmt"
	"hash/fnv"
	"io"
	"net/http"
	"net/http/httptest"
	"testing"
)

func TestStreamIsAPureFunctionOfSeedAndIndex(t *testing.T) {
	for _, name := range workloadNames {
		a, err := newTraffic(name, 7)
		if err != nil {
			t.Fatal(err)
		}
		b, _ := newTraffic(name, 7)
		other, _ := newTraffic(name, 8)
		differs := false
		for _, stream := range []uint64{streamTimed, streamWarm} {
			for i := 0; i < 200; i++ {
				if !bytes.Equal(a.body(stream, i), b.body(stream, i)) {
					t.Fatalf("%s stream %d request %d differs between two builds of seed 7", name, stream, i)
				}
				differs = differs || !bytes.Equal(a.body(stream, i), other.body(stream, i))
			}
		}
		if !differs {
			t.Errorf("%s: seeds 7 and 8 gave the same requests", name)
		}
	}
}

// echoCost answers every request with a cost that identifies its body.
func echoCost(w http.ResponseWriter, r *http.Request) {
	body, _ := io.ReadAll(r.Body)
	h := fnv.New32a()
	h.Write(body)
	fmt.Fprintf(w, `{"cost":%d,"mode":"exhaustive"}`, h.Sum32())
}

func bodyID(b []byte) float64 {
	h := fnv.New32a()
	h.Write(b)
	return float64(h.Sum32())
}

func TestStreamIsTheSameForEveryClientCount(t *testing.T) {
	srv := httptest.NewServer(http.HandlerFunc(echoCost))
	defer srv.Close()
	p := &poster{client: srv.Client(), url: srv.URL}
	for _, name := range []string{"opt-hot", "opt-cold"} {
		tr, _ := newTraffic(name, 3)
		for _, clients := range []int{1, 2, 4} {
			const n = 150
			res := p.closedLoop(clients,
				func(i int) []byte { return tr.body(streamTimed, i) },
				func(i int) bool { return i < n })
			if res.failed != 0 || len(res.ok) != n {
				t.Fatalf("%s with %d clients: %d ok, %d failed (%v)", name, clients, len(res.ok), res.failed, res.firstErr)
			}
			for j, s := range res.ok {
				if s.i != j {
					t.Fatalf("%s with %d clients: sample %d has index %d", name, clients, j, s.i)
				}
				if s.cost != bodyID(tr.body(streamTimed, s.i)) {
					t.Fatalf("%s with %d clients: request %d carried another body", name, clients, s.i)
				}
			}
		}
	}
}

func TestHotPoolCyclesSizesAndModels(t *testing.T) {
	tr, _ := newTraffic("opt-hot", 11)
	seen := map[string]bool{}
	for k := 0; k < 21; k++ {
		c := tr.pool[k].c
		seen[fmt.Sprintf("%d/%s", c.N, c.Model.Name())] = true
	}
	if len(seen) != 21 {
		t.Errorf("the 21 most popular shapes cover %d (n, model) pairs, want all 21", len(seen))
	}
}
