package server

import (
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"sync"

	"blitzsplit"
	"blitzsplit/internal/cluster"
	"blitzsplit/internal/faultinject"
)

// MaxBatchQueries bounds one POST /v1/optimize/batch request.
const MaxBatchQueries = 256

// BatchRequest is the POST /v1/optimize/batch body: up to MaxBatchQueries
// independent optimize requests answered in one round trip. On a cluster the
// server groups the queries by owning shard and forwards each group to its
// owner as a sub-batch, so a mixed batch costs one hop per distinct owner
// instead of one per query.
type BatchRequest struct {
	Queries []OptimizeRequest `json:"queries"`
}

// BatchResult is one element of BatchResponse.Results, in request order:
// either a successful optimize response or an error with the HTTP status it
// would have carried as a single request.
type BatchResult struct {
	Result *OptimizeResponse `json:"result,omitempty"`
	Error  string            `json:"error,omitempty"`
	Kind   string            `json:"kind,omitempty"`
	Code   int               `json:"code,omitempty"`
}

// BatchResponse is the POST /v1/optimize/batch success body. The HTTP status
// is 200 whenever the batch itself was processable; per-query failures are
// reported inline so one bad query never voids its neighbors.
type BatchResponse struct {
	Results []BatchResult `json:"results"`
}

// batchItem is one decoded query flowing through the batch spine.
type batchItem struct {
	idx   int
	req   *OptimizeRequest
	q     *blitzsplit.Query
	key   string // flight key
	fpHex string
}

// handleBatch is the batch spine: decode → validate each query → group by
// owning shard → serve local groups / forward remote groups concurrently →
// reassemble in request order.
func (s *Server) handleBatch(w http.ResponseWriter, r *http.Request) {
	start := s.cfg.Now()
	defer func() { s.met.latency.Observe(s.cfg.Now().Sub(start)) }()
	defer func() {
		if v := recover(); v != nil {
			s.handlerPanics.Add(1)
			s.met.panics.Inc()
			s.fail(w, http.StatusInternalServerError, "internal error: %v", v)
		}
	}()
	faultinject.Inject(faultinject.ServerRequest)

	if r.Method != http.MethodPost {
		s.fail(w, http.StatusMethodNotAllowed, "POST required")
		return
	}
	if s.draining.Load() {
		s.met.shed.Inc()
		s.fail(w, http.StatusServiceUnavailable, "draining")
		return
	}
	var batch BatchRequest
	if code, err := s.readJSON(r, &batch); err != nil {
		s.fail(w, code, "%v", err)
		return
	}
	if len(batch.Queries) == 0 {
		s.fail(w, http.StatusBadRequest, "empty batch")
		return
	}
	if len(batch.Queries) > MaxBatchQueries {
		s.fail(w, http.StatusUnprocessableEntity,
			"%d queries exceeds the batch limit of %d", len(batch.Queries), MaxBatchQueries)
		return
	}

	results := make([]BatchResult, len(batch.Queries))
	// Decode/validate every query up front; failures are inline results, and
	// the survivors are grouped by owner. "local" is keyed by the empty ID.
	groups := make(map[string][]batchItem)
	forwarded := r.Header.Get(cluster.HeaderForwarded) != ""
	if s.cluster != nil && forwarded {
		s.cluster.received.Add(1)
	}
	for i := range batch.Queries {
		req := &batch.Queries[i]
		if code, err := s.validateRequest(req); err != nil {
			results[i] = BatchResult{Error: err.Error(), Code: code}
			continue
		}
		q, cq, err := s.buildQuery(req)
		if err != nil {
			results[i] = BatchResult{Error: err.Error(), Code: http.StatusBadRequest}
			continue
		}
		key, fp := s.flightKey(cq, req)
		item := batchItem{idx: i, req: req, q: q, key: key, fpHex: hex.EncodeToString(fp)}
		ownerID := ""
		if s.cluster != nil && !forwarded {
			if owner := s.cluster.ring.Owner(fp); owner.ID != "" && owner.ID != s.cluster.self.ID && owner.URL != "" {
				ownerID = owner.ID
			}
		}
		groups[ownerID] = append(groups[ownerID], item)
	}

	// One goroutine per owner group: local queries run through the ordinary
	// spine (coalescing and admission apply per query), remote groups cost
	// one forwarded sub-batch each. Each goroutine carries its own panic
	// boundary — results must come back for every index.
	var wg sync.WaitGroup
	for ownerID, items := range groups {
		wg.Add(1)
		go func(ownerID string, items []batchItem) {
			defer wg.Done()
			defer func() {
				if v := recover(); v != nil {
					s.handlerPanics.Add(1)
					s.met.panics.Inc()
					for _, it := range items {
						if results[it.idx] == (BatchResult{}) {
							results[it.idx] = BatchResult{
								Error: fmt.Sprintf("internal error: %v", v),
								Code:  http.StatusInternalServerError,
							}
						}
					}
				}
			}()
			if ownerID == "" {
				s.serveBatchLocal(r, items, results)
				return
			}
			s.forwardBatch(r, ownerID, items, results)
		}(ownerID, items)
	}
	wg.Wait()

	s.met.requests(http.StatusOK).Inc()
	s.writeJSON(w, http.StatusOK, BatchResponse{Results: results})
}

// serveBatchLocal runs a group of queries through the local spine
// sequentially, filling results at their original indices.
func (s *Server) serveBatchLocal(r *http.Request, items []batchItem, results []BatchResult) {
	for _, it := range items {
		qstart := s.cfg.Now()
		resp, serr := s.optimizeLocal(r.Context(), it.req, it.q, it.key, qstart)
		if serr != nil {
			results[it.idx] = BatchResult{Error: serr.msg, Kind: serr.kind, Code: serr.code}
			continue
		}
		resp.Fingerprint = it.fpHex
		results[it.idx] = BatchResult{Result: &resp}
	}
}

// forwardBatch sends one owner's group as a forwarded sub-batch and scatters
// the owner's results back to the original indices. Any transport failure
// fails the whole group over to local serving — availability beats
// placement, same as single-request routing (without the push-fill repair:
// a batch fallback may strand up to len(items) plans off-shard, which the
// next forwarded request per shape repairs via its cheap fill).
func (s *Server) forwardBatch(r *http.Request, ownerID string, items []batchItem, results []BatchResult) {
	cs := s.cluster
	owner, ok := cs.ring.Lookup(ownerID)
	if !ok {
		s.serveBatchLocal(r, items, results)
		return
	}
	sub := BatchRequest{Queries: make([]OptimizeRequest, len(items))}
	for i, it := range items {
		sub.Queries[i] = *it.req
	}
	body, err := json.Marshal(sub)
	if err != nil {
		s.serveBatchLocal(r, items, results)
		return
	}
	fresp, err := cs.client.Forward(r.Context(), owner, "/v1/optimize/batch", "application/json", body)
	if err != nil {
		cs.forwardErrs[ownerID].Add(1)
		cs.fallbackLocal.Add(uint64(len(items)))
		s.serveBatchLocal(r, items, results)
		return
	}
	defer fresp.Body.Close()
	relay, err := io.ReadAll(fresp.Body)
	if err != nil || fresp.StatusCode != http.StatusOK {
		cs.forwardErrs[ownerID].Add(1)
		cs.fallbackLocal.Add(uint64(len(items)))
		s.serveBatchLocal(r, items, results)
		return
	}
	var subResp BatchResponse
	if err := json.Unmarshal(relay, &subResp); err != nil || len(subResp.Results) != len(items) {
		cs.forwardErrs[ownerID].Add(1)
		s.serveBatchLocal(r, items, results)
		return
	}
	cs.forwarded[ownerID].Add(uint64(len(items)))
	for i, it := range items {
		results[it.idx] = subResp.Results[i]
	}
}
