package main

import (
	"encoding/json"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// The host's speed drifts: on the 2-vCPU VM the bounds were set on, the
// same work ran up to 1.7 times faster in one minute than in another, in
// phases lasting tens of seconds (README.md). Every timed window is therefore
// bracketed by a short calibration: a fixed workload that shares no code with
// blitzd, run in this process while the daemon is idle. Its rate against
// refCalibration is the host's speed, and every end-to-end time is reported
// as it would have been at the reference speed.

// refCalibration is calibrate's median rate on the reference host, a
// 2-vCPU Intel Xeon VM, over 80 runs. Its value only scales the reported
// times.
const refCalibration = 150_000

// calibrationTime is the length of one calibration.
const calibrationTime = 100 * time.Millisecond

// calDoc is the calibration's input: a request body like the workloads'.
var calDoc = []byte(`{"relations":[{"name":"R0","cardinality":123.456},` +
	`{"name":"R1","cardinality":9876.54321},{"name":"R2","cardinality":1.5},` +
	`{"name":"R3","cardinality":42},{"name":"R4","cardinality":77777.7},` +
	`{"name":"R5","cardinality":3.14159}],"joins":[{"a":"R0","b":"R1","selectivity":0.001},` +
	`{"a":"R1","b":"R2","selectivity":0.25},{"a":"R2","b":"R5","selectivity":0.0625}],"model":"dnl"}`)

type calRelation struct {
	Name        string  `json:"name"`
	Cardinality float64 `json:"cardinality"`
}

type calJoin struct {
	A, B        string
	Selectivity float64 `json:"selectivity"`
}

type calRequest struct {
	Relations []calRelation `json:"relations"`
	Joins     []calJoin     `json:"joins"`
	Model     string        `json:"model"`
}

// calibrate decodes, sorts and re-encodes calDoc on conns goroutines for
// calibrationTime and returns the host's speed: the rate achieved over
// refCalibration.
func calibrate() float64 {
	var rounds atomic.Int64
	var wg sync.WaitGroup
	start := time.Now()
	for g := 0; g < conns; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for time.Since(start) < calibrationTime {
				for i := 0; i < 32; i++ {
					var r calRequest
					if err := json.Unmarshal(calDoc, &r); err != nil {
						panic(err) // calDoc is a constant
					}
					sort.Slice(r.Relations, func(a, b int) bool { return r.Relations[a].Cardinality < r.Relations[b].Cardinality })
					if _, err := json.Marshal(r); err != nil {
						panic(err)
					}
				}
				rounds.Add(32)
			}
		}()
	}
	wg.Wait()
	return float64(rounds.Load()) / time.Since(start).Seconds() / refCalibration
}
