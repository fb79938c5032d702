package core

import (
	"math"
	"math/bits"
	"sync"
	"unsafe"

	"blitzsplit/internal/bitset"
	"blitzsplit/internal/cost"
	"blitzsplit/internal/faultinject"
	"blitzsplit/internal/plan"
)

// Slot is one optimization-pass entry of the DP table: the best plan cost
// found for a subset and the left operand of its best split, interleaved
// into a single 16-byte struct. The 3^n split loop reads cost[lhs] and
// cost[rhs] and finally writes (cost, bestLHS) of the enclosing set; with
// parallel columns the write touches two cache lines and the two columns
// compete for the same sets' lines across the scan. Interleaving puts each
// subset's whole optimization state on one line — the paper's §4.1 16-byte
// entry target (float cost, solution pointer, and padding).
type Slot struct {
	// Cost is the best plan cost found for the subset in the current pass;
	// +Inf when none exists under the active threshold.
	Cost float64
	// BestLHS is the left operand of the subset's best split; 0 for
	// singletons and for subsets with no plan. n ≤ 30 keeps it in a uint32.
	BestLHS uint32
	// Padding keeps the entry at 16 bytes so slots never straddle cache
	// lines and &slot[s] is a shift, not a multiply.
	_ uint32
}

// Table is the blitzsplit dynamic-programming table: one entry per nonempty
// subset of the relation set, indexed by the subset's integer value (§4.1).
// Properties (cardinality, fan product, cost-model memo) are filled once per
// query; costs and best splits are filled once per optimization pass, since
// plan-cost thresholds (§6.4) can require re-optimization.
type Table struct {
	n    int
	full bitset.Set

	kernel
	hasFan bool // fan column maintained (query has a join graph)
	// capOperands enables the κsm operand-floor skip for the current pass
	// (see findBestSplit); fillCosts sets it.
	capOperands bool

	// card[s] is the §5 intermediate-result cardinality of relation set s.
	card []float64
	// fan[s] is Π_fan(s) (equation 9); meaningful only when hasFan (the
	// backing slice is retained across Reset either way).
	fan []float64
	// memo[s] caches the model's per-set value (e.g. sort-merge's
	// |R|(1+log|R|), per the Appendix); meaningful only when memoized ≠ nil.
	memo []float64
	// slot[s] interleaves the optimization-pass-hot pair — best cost and
	// best split of s — into one 16-byte entry (see Slot). The property
	// columns above stay separate: they are written once per query and the
	// split loop reads card only outside the nested-if fast path.
	slot []Slot

	// Parallel-fill scratch, retained across layers and passes so the
	// steady-state schedule performs no allocation: chunk start points for
	// the current rank layer, and one counter block per worker (padded so
	// neighbouring workers never share a cache line).
	chunks  []bitset.Set
	workers []paddedCounters

	// CCP fill state (Options.Enumerator == EnumeratorCCP): conn is the
	// 2^n-bit connectivity bitmap, ccpN the relation count it was built for —
	// −1 when stale. Reset invalidates; prepareCCP rebuilds once per query,
	// so threshold re-passes reuse it. layer holds the current rank layer's
	// connected sets during a layer-parallel CCP pass. Under a CCP fill the
	// slots of disconnected subsets are never written (nor read: the guarded
	// split loop and ExtractPlan only touch connected sets).
	conn  []uint64
	layer []bitset.Set
	ccpN  int
}

// kernel is a cost model resolved once for the split loop: the memoized
// (κsm) and inlined disk-nested-loops fast paths, the κ″ ≡ 0 shortcut, and
// the generic interface call for every other model. The fill and
// AnnotatePlan share it, so a re-derived cost takes the fill's arithmetic.
type kernel struct {
	model    cost.Model
	memoized cost.Memoized // non-nil when model supports table memoization
	dnl      cost.DiskNestedLoops
	isDNL    bool // model is the dnl model (inlined κ″)
	naive    bool // κ″ ≡ 0 (skip evaluation entirely)
	// sortMerge marks κsm, whose κ″ at a parent is the sum of its operands'
	// memos: the operand-floor skip in findBestSplit rests on it.
	sortMerge bool
}

// newKernel resolves model (nil means cost.Naive{}) for the split loop.
func newKernel(model cost.Model) kernel {
	if model == nil {
		model = cost.Naive{}
	}
	k := kernel{model: model}
	if m, ok := model.(cost.Memoized); ok {
		k.memoized = m
	}
	k.dnl, k.isDNL = model.(cost.DiskNestedLoops)
	_, k.naive = model.(cost.Naive)
	_, k.sortMerge = model.(cost.SortMerge)
	return k
}

// dnlSplitDep is κ″dnl inlined: l·r/(K²(M−1)) + min(l, r)/K.
func (k *kernel) dnlSplitDep(l, r float64) float64 {
	m := l
	if r < l {
		m = r
	}
	return l*r/(k.dnl.K*k.dnl.K*(k.dnl.M-1)) + m/k.dnl.K
}

// paddedCounters separates per-worker counters onto distinct cache lines.
type paddedCounters struct {
	c Counters
	_ [64]byte
}

// NewTable allocates a table for n relations. hasGraph selects whether the
// fan column is maintained; model determines memoization and κ″ dispatch
// (nil model means cost.Naive{}).
func NewTable(n int, hasGraph bool, model cost.Model) *Table {
	t := &Table{}
	t.Reset(n, hasGraph, model)
	return t
}

// Reset reconfigures the table for a new query shape, reusing every backing
// slice whose capacity suffices — repeated optimizations at similar n run
// allocation-free instead of re-making four 2^n-element slices per query.
// No column is zeroed: initProperties and fillCosts overwrite every entry a
// pass reads, so stale values from the previous query are never observed.
func (t *Table) Reset(n int, hasGraph bool, model cost.Model) {
	size := 1 << uint(n)
	t.n = n
	t.full = bitset.Full(n)
	t.kernel = newKernel(model)
	t.hasFan = hasGraph
	t.card = growFloats(t.card, size)
	t.slot = growSlots(t.slot, size)
	if hasGraph {
		t.fan = growFloats(t.fan, size)
	}
	if t.memoized != nil {
		t.memo = growFloats(t.memo, size)
	}
	t.ccpN = -1
}

func growFloats(s []float64, size int) []float64 {
	if cap(s) >= size {
		return s[:size]
	}
	return make([]float64, size)
}

func growSlots(s []Slot, size int) []Slot {
	if cap(s) >= size {
		return s[:size]
	}
	return make([]Slot, size)
}

// RetainedBytes returns the bytes pinned by the table's backing columns and
// scratch, measured at capacity (what the allocator actually holds, not the
// current logical length). The arena meters its pooled-byte budget with this.
func (t *Table) RetainedBytes() uint64 {
	const workerBytes = uint64(unsafe.Sizeof(paddedCounters{}))
	const slotBytes = uint64(unsafe.Sizeof(Slot{}))
	return uint64(cap(t.card))*8 +
		uint64(cap(t.fan))*8 +
		uint64(cap(t.memo))*8 +
		uint64(cap(t.slot))*slotBytes +
		uint64(cap(t.chunks))*8 +
		uint64(cap(t.workers))*workerBytes +
		uint64(cap(t.conn))*8 +
		uint64(cap(t.layer))*8
}

// N returns the number of relations.
func (t *Table) N() int { return t.n }

// Card returns the estimated cardinality of relation set s.
func (t *Table) Card(s bitset.Set) float64 { return t.card[s] }

// Fan returns Π_fan(s), or 1 when the query has no join graph.
func (t *Table) Fan(s bitset.Set) float64 {
	if !t.hasFan {
		return 1
	}
	return t.fan[s]
}

// Cost returns the best plan cost found for s (+Inf if none).
func (t *Table) Cost(s bitset.Set) float64 { return t.slot[s].Cost }

// BestLHS returns the left operand of the best split of s (empty for
// singletons and for sets with no plan).
func (t *Table) BestLHS(s bitset.Set) bitset.Set { return bitset.Set(t.slot[s].BestLHS) }

// initProperties fills the cardinality, fan and memo columns for every
// subset — the revised compute_properties of §5.4. Each non-singleton set
// costs exactly one fan lookup-multiply and two cardinality multiplies,
// regardless of the join graph.
//
// With workers ≤ 1 the fill runs in numeric order (§4.2). With workers ≥ 2
// it runs layer-parallel: every property of a popcount-k set depends only on
// popcount-(k−1) sets (u = {min s}, v = s − u, and the two fan halves u|w,
// u|z), so rank layers fill concurrently with a barrier between layers,
// producing bit-identical columns.
//
// A halted budget stops the fill at the next rank layer, worker chunk, or
// serial 1024-subset stride and returns a *BudgetError for the properties
// phase. A stopped table holds partial columns but remains safely
// resettable — Reset never reads old contents, and every complete pass
// overwrites every entry it reads.
func (t *Table) initProperties(q Query, workers int, bg *budget) error {
	if bg.halted() {
		return bg.exceeded(PhaseProperties)
	}
	// init_singleton for each relation (§3.2).
	for i := 0; i < t.n; i++ {
		s := bitset.Single(i)
		t.card[s] = q.Cards[i]
		if t.hasFan {
			t.fan[s] = 1
		}
		if t.memoized != nil {
			t.memo[s] = t.memoized.Memo(q.Cards[i])
		}
	}
	if workers > 1 {
		for k := 2; k <= t.n; k++ {
			faultinject.Inject(faultinject.CorePropsLayer)
			if bg.halted() {
				return bg.exceeded(PhaseProperties)
			}
			t.runLayer(k, workers, func(_ int, s bitset.Set, count int) {
				for j := 0; j < count; j++ {
					if j&(budgetCheckStride-1) == 0 && bg.halted() {
						bg.add(uint64(j))
						return
					}
					t.initProperty(q, s)
					s = bitset.NextKSubset(s)
				}
				bg.add(uint64(count))
			})
		}
		if bg.halted() {
			return bg.exceeded(PhaseProperties)
		}
		return nil
	}
	size := bitset.Set(1) << uint(t.n)
	var filled uint64
	for s := bitset.Set(3); s < size; s++ {
		if s&(budgetCheckStride-1) == 0 {
			faultinject.Inject(faultinject.CorePropsLayer)
			if bg.halted() {
				bg.add(filled)
				return bg.exceeded(PhaseProperties)
			}
		}
		if s.IsSingleton() {
			continue
		}
		t.initProperty(q, s)
		filled++
	}
	return nil
}

// initProperty fills the property columns of one non-singleton set via the
// §5.2/§5.4 recurrences.
func (t *Table) initProperty(q Query, s bitset.Set) {
	u := s.MinSet()
	v := s ^ u
	if t.hasFan {
		if v.IsSingleton() {
			// Doubleton: Π_fan is the selectivity of the connecting
			// predicate, or 1 when there is none (§5.4).
			t.fan[s] = q.Graph.Selectivity(u.Min(), v.Min())
		} else {
			// Recurrence (10): split V into W = {min V} and Z = V − W.
			w := v.MinSet()
			z := v ^ w
			t.fan[s] = t.fan[u|w] * t.fan[u|z]
		}
		// Recurrence (11).
		t.card[s] = t.card[u] * t.card[v] * t.fan[s]
	} else {
		t.card[s] = t.card[u] * t.card[v]
	}
	if t.memoized != nil {
		t.memo[s] = t.memoized.Memo(t.card[s])
	}
}

// fillCosts runs one optimization pass: find_best_split for every
// non-singleton subset, rejecting any plan whose cost exceeds threshold. It
// returns the pass's instrumentation counters.
//
// With opts.Parallelism ≤ 0 subsets are visited in numeric order, exactly
// the paper's §4.2 fill. Otherwise the fill is layer-parallel (see
// fillCostsLayered); both schedules produce bit-identical cost/bestLHS
// columns and equal counter totals, because each set's best split depends
// only on strictly-smaller-popcount sets and findBestSplit's tie-breaking is
// deterministic (the lowest LHS among minimum-cost splits wins regardless of
// schedule or enumeration order).
//
// A halted budget stops the pass at the next rank layer, worker chunk, or
// serial 1024-subset stride, returning the counters accumulated so far
// alongside a *BudgetError for the fill phase.
//
// Both enumerators run this one fill. The CCP fill is the blitz fill
// restricted to connected subsets: conn is the connectivity bitmap for
// EnumeratorCCP and nil for the blitz scan, and findBestSplit gates its pair
// loop by it.
func (t *Table) fillCosts(q Query, opts Options, threshold float64, bg *budget) (Counters, error) {
	if bg.halted() {
		return Counters{}, bg.exceeded(PhaseFill)
	}
	for i := 0; i < t.n; i++ {
		t.slot[bitset.Single(i)] = Slot{}
	}
	// The operand-floor skip runs only under a threshold below the overflow
	// limit, so every unthresholded pass, each paper-figure reproduction
	// among them, stays the paper's algorithm, counters included.
	t.capOperands = t.sortMerge && threshold < opts.overflowLimit()
	var conn []uint64
	if opts.Enumerator == EnumeratorCCP {
		if err := t.prepareCCP(q, bg); err != nil {
			return Counters{}, err
		}
		conn = t.conn
	}
	if w := opts.workers(); w > 0 {
		return t.fillCostsLayered(opts, threshold, conn, w, bg)
	}
	// Numeric order (§4.2), one 64-subset bitmap word at a time: the word is
	// all ones for the blitz scan and conn's word for CCP, so a CCP fill
	// skips disconnected subsets a word at a time.
	var c Counters
	size := bitset.Set(1) << uint(t.n)
	all := ^uint64(0)
	if size < 64 {
		all = 1<<size - 1
	}
	for base := bitset.Set(0); base < size; base += 64 {
		if base&(budgetCheckStride-1) == 0 {
			faultinject.Inject(faultinject.CoreFillLayer)
			if bg.halted() {
				bg.add(c.SubsetsVisited)
				return c, bg.exceeded(PhaseFill)
			}
		}
		word := all
		if conn != nil {
			word = conn[base>>6]
		}
		for ; word != 0; word &= word - 1 {
			s := base | bitset.Set(bits.TrailingZeros64(word))
			if s&(s-1) == 0 {
				continue // the empty set and singletons
			}
			c.SubsetsVisited++
			t.findBestSplit(s, opts, threshold, conn, &c)
		}
	}
	return c, nil
}

// fillCostsLayered is the parallel pass: rank layers k = 2 … n in turn, each
// layer's sets partitioned into contiguous chunks handed to workers by
// striding, with a barrier between layers. The blitz scan chunks the C(n,k)
// sets of a layer in Gosper order; CCP gathers the layer's connected sets
// from the bitmap and chunks that list. Each worker accumulates into its own
// padded Counters block; the blocks are merged once at the end, so the
// totals are exact and contention-free.
func (t *Table) fillCostsLayered(opts Options, threshold float64, conn []uint64, workers int, bg *budget) (Counters, error) {
	if workers > len(t.workers) {
		t.workers = make([]paddedCounters, workers)
	}
	for i := range t.workers {
		t.workers[i].c = Counters{}
	}
	if conn != nil {
		t.sizeLayerBuffer()
	}
	// A halted budget makes remaining chunks return immediately, so the
	// layer barrier is reached within one chunk stride of the cancellation —
	// workers park on the barrier, never leak.
	startChunk := func(w int) *Counters {
		if bg.halted() {
			return nil
		}
		faultinject.Inject(faultinject.CoreFillChunk)
		return &t.workers[w].c
	}
	for k := 2; k <= t.n; k++ {
		faultinject.Inject(faultinject.CoreFillLayer)
		if bg.halted() {
			break
		}
		if conn == nil {
			t.runLayer(k, workers, func(w int, s bitset.Set, count int) {
				c := startChunk(w)
				if c == nil {
					return
				}
				for j := 0; j < count; j++ {
					if j&(budgetCheckStride-1) == 0 && j > 0 && bg.halted() {
						return
					}
					c.SubsetsVisited++
					t.findBestSplit(s, opts, threshold, nil, c)
					s = bitset.NextKSubset(s)
				}
			})
			continue
		}
		layer := t.connectedLayer(k)
		chunk := chunkLen(len(layer), workers)
		fanOut(workers, (len(layer)+chunk-1)/chunk, func(w, ci int) {
			c := startChunk(w)
			if c == nil {
				return
			}
			lo := ci * chunk
			for j, s := range layer[lo:min(lo+chunk, len(layer))] {
				if j&(budgetCheckStride-1) == 0 && j > 0 && bg.halted() {
					return
				}
				c.SubsetsVisited++
				t.findBestSplit(s, opts, threshold, conn, c)
			}
		})
	}
	var total Counters
	for w := 0; w < workers; w++ {
		total.Add(t.workers[w].c)
	}
	if bg.halted() {
		bg.add(total.SubsetsVisited)
		return total, bg.exceeded(PhaseFill)
	}
	return total, nil
}

// runLayer partitions rank layer k into chunks of consecutive k-subsets and
// invokes work(worker, chunkStart, chunkLen) for every chunk through fanOut.
// The chunk-start slice is the only bookkeeping and is reused across layers
// and passes.
func (t *Table) runLayer(k, workers int, work func(w int, start bitset.Set, count int)) {
	total := int(bitset.Binomial(t.n, k))
	chunk := chunkLen(total, workers)
	t.chunks = bitset.AppendKSubsetRange(t.chunks[:0], t.n, k, chunk)
	fanOut(workers, len(t.chunks), func(w, ci int) {
		work(w, t.chunks[ci], min(chunk, total-ci*chunk))
	})
}

// chunkLen sizes a layer's chunks to aim at 4 per worker, so stragglers
// rebalance while spawn overhead stays amortized.
func chunkLen(total, workers int) int {
	return max(total/(workers*4), 1)
}

// fanOut invokes work(w, ci) for every chunk ci < nchunks, worker w taking
// chunks w, w+workers, w+2·workers, … — a static stride schedule with no
// per-item queue — and returns once every chunk is done. With one worker (or
// one chunk) the chunks run inline on the calling goroutine.
func fanOut(workers, nchunks int, work func(w, ci int)) {
	if workers == 1 || nchunks <= 1 {
		for ci := 0; ci < nchunks; ci++ {
			work(0, ci)
		}
		return
	}
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for ci := w; ci < nchunks; ci += workers {
				work(w, ci)
			}
		}(w)
	}
	wg.Wait()
}

// findBestSplit fills cost[s] and bestLHS[s] (§3.2 find_best_split with the
// §4.2 realization details). The κ′ evaluation happens once, before the
// loop; if it already exceeds the threshold the loop is skipped entirely —
// the overflow short-circuit of §6.3 that §6.4 generalizes into explicit
// plan-cost thresholds.
//
// Under κsm, κ′ ≡ 0 and that test never fires, so a pass under a threshold
// below the overflow limit (capOperands) skips by operand instead: a set
// s ≠ full whose memo exceeds the threshold can be no operand of a plan
// within it, because κ″sm at any parent is the sum of its operands' memos
// (Appendix), which are never negative, and a float sum of nonnegative terms
// is at least each term. Such a set gets +Inf without its split loop. The
// full set is no operand; its own plans are judged by the loop.
//
// Tie-breaking is deterministic and schedule-independent: among equal-cost
// splits the numerically lowest LHS set wins. The historical ascending §4.2
// scan produced that winner implicitly (first strict improvement in
// ascending order); the pair-at-a-time loops below produce it explicitly via
// strict prunes plus a smaller-LHS rule on exact cost ties, so the result is
// bit-identical to the ascending scan in every mode. The serial and
// layer-parallel fills therefore choose identical plans, not merely
// equal-cost ones.
//
// conn is nil for the blitz scan. For EnumeratorCCP it is the connectivity
// bitmap, s is connected, and the pair scan is connectedSplits: only splits
// whose two halves are both connected. Everything else — κ′, the threshold
// skip, the counters and the slot write — is shared by both enumerators.
func (t *Table) findBestSplit(s bitset.Set, opts Options, threshold float64, conn []uint64, c *Counters) {
	outCard := t.card[s]
	kp := t.model.SplitIndep(outCard)
	c.KpEvals++
	// Skip the whole best-split search when κ′ alone already disqualifies
	// every plan for s: above the active threshold, infinite (cardinality
	// overflowed even float64), or NaN.
	if kp > threshold || math.IsInf(kp, 1) || math.IsNaN(kp) ||
		(t.capOperands && s != t.full && t.memo[s] > threshold) {
		c.ThresholdSkips++
		t.slot[s] = Slot{Cost: math.Inf(1)}
		return
	}

	// best tracks the split-dependent portion (operand costs + κ″); the
	// final cost is best + κ′. Initializing best at threshold − κ′ rejects
	// over-threshold plans inside the loop for free.
	best := threshold - kp
	bestLHS := bitset.Empty
	slots := t.slot
	// mask reproves every probe index in-bounds via x&(len−1) ≤ len−1, which
	// the compiler's prover accepts — the two loads per split iteration are
	// the hottest instructions in the whole optimizer, so their bounds checks
	// are worth deleting. Semantically a no-op: every lhs/rhs is a submask of
	// s < len(slots), and len is 2^n for a live table.
	mask := bitset.Set(len(slots)) - 1
	_ = slots[s] // len(slots) > s: lets the prover drop both loop probes' checks

	// The §4.2 successor enumeration is unconditional — nested ifs skip
	// cost work, never iterations — so the loop trip count is a function of
	// |s| alone: 2^|s|−2 proper bipartitions (|s| base-relation splits in
	// left-deep mode). Counting analytically keeps the counters exact while
	// freeing a loop-carried register in the scan.
	k := s.Count()
	iters := uint64(1)<<uint(k) - 2
	var kppEvals, condHits uint64

	switch {
	case conn != nil:
		best, bestLHS, iters, kppEvals, condHits = t.connectedSplits(s, outCard, best, conn)

	case opts.LeftDeep:
		iters = uint64(k)
		// Left-deep restriction (§6.2): the right operand must be a base
		// relation, so only |s| splits are considered. The ablation flags do
		// not apply in this mode.
		for rest := s; rest != 0; rest &= rest - 1 {
			rhs := rest & -rest
			lhs := s ^ rhs
			if lhs == 0 {
				continue
			}
			lc := slots[lhs&mask].Cost // rhs is a base relation: cost 0
			if lc >= best {
				continue
			}
			dpnd := lc
			if !t.naive {
				kppEvals++
				dpnd += t.splitDep(outCard, lhs, rhs)
			}
			if dpnd < best {
				best = dpnd
				bestLHS = lhs
				condHits++
			}
		}

	case opts.DisableNestedIfs || opts.DescendingSubsets:
		// Ablation paths; correctness matters, raw speed does not.
		next := func(lhs bitset.Set) bitset.Set { return s & (lhs - s) }
		lhs := s & -s
		if opts.DescendingSubsets {
			next = func(lhs bitset.Set) bitset.Set { return s.DescendSubset(lhs) }
			lhs = s.DescendSubset(s)
		}
		for ; lhs != s && lhs != 0; lhs = next(lhs) {
			rhs := s ^ lhs
			lc, rc := slots[lhs&mask].Cost, slots[rhs&mask].Cost
			if !opts.DisableNestedIfs && (lc >= best || rc >= best || lc+rc >= best) {
				continue
			}
			dpnd := lc + rc
			if !t.naive {
				kppEvals++
				dpnd += t.splitDep(outCard, lhs, rhs)
			}
			if dpnd < best {
				best = dpnd
				bestLHS = lhs
				condHits++
			}
		}

	case t.naive:
		// κ″ ≡ 0: a split's cost is lc + rc, identical for both orientations
		// of a bipartition — so enumerate each unordered pair once (submasks
		// containing the lowest bit of s) and charge both orientations from
		// one pair of loads. Halving the probe traffic is what keeps the
		// 16-byte interleaved entries as cheap to scan as the old split
		// cost column; the pair loop is the purest form of the §4.2 scan and
		// the loop Figure 2 times. Ties resolve to the numerically smaller
		// side, which is exactly the split the ascending first-win
		// enumeration would have kept — plans stay bit-identical.
		low := s & -s
		rest := s ^ low
		for sub := bitset.Set(0); ; sub = (sub - rest) & rest {
			lhs := sub | low
			if lhs == s {
				break
			}
			rhs := s ^ lhs
			lc := slots[lhs&mask].Cost
			rc := slots[rhs&mask].Cost
			if o := lc + rc; o <= best {
				win := lhs
				if rhs < lhs {
					win = rhs
				}
				if o < best {
					best = o
					bestLHS = win
					condHits++
				} else if win < bestLHS {
					bestLHS = win
				}
			}
		}

	default:
		// The paper's enumeration visits succ(L) = S & (L − S) from
		// δ_S(1) = S & −S (§4.2) — every bipartition twice, loading the same
		// two operand costs for each orientation. Enumerating unordered pairs
		// (submasks containing the lowest bit of s) halves the probe traffic
		// over the interleaved slot column while the nested-if structure
		// still gates κ″ behind the operand-cost screens. Prunes are strict
		// (>) so an exact tie with the incumbent is never discarded before
		// the smaller-LHS rule can see it: the final (cost, bestLHS) is the
		// minimum cost with the numerically smallest LHS among its achievers,
		// which is precisely what the ascending first-win scan produces.
		low := s & -s
		rest := s ^ low
		for sub := bitset.Set(0); ; sub = (sub - rest) & rest {
			lhs := sub | low
			if lhs == s {
				break
			}
			rhs := s ^ lhs
			lc := slots[lhs&mask].Cost
			if lc > best {
				continue
			}
			rc := slots[rhs&mask].Cost
			if rc > best {
				continue
			}
			oprnd := lc + rc
			if oprnd > best {
				continue
			}
			kppEvals++
			if d := oprnd + t.splitDep(outCard, lhs, rhs); d < best || (d == best && lhs < bestLHS) {
				if d < best {
					condHits++
				}
				best = d
				bestLHS = lhs
			}
			if oprnd > best {
				continue
			}
			kppEvals++
			if d := oprnd + t.splitDep(outCard, rhs, lhs); d < best || (d == best && rhs < bestLHS) {
				if d < best {
					condHits++
				}
				best = d
				bestLHS = rhs
			}
		}
	}

	c.LoopIters += iters
	c.KppEvals += kppEvals
	c.CondHits += condHits
	if bestLHS == 0 {
		t.slot[s] = Slot{Cost: math.Inf(1)}
		return
	}
	t.slot[s] = Slot{Cost: best + kp, BestLHS: uint32(bestLHS)}
}

// splitDep computes κ″ for a split, using the memoized per-set values or the
// inlined disk-nested-loops formula when available.
func (t *Table) splitDep(outCard float64, lhs, rhs bitset.Set) float64 {
	if t.memoized != nil {
		return t.memoized.SplitDepFromMemo(outCard, t.memo[lhs], t.memo[rhs])
	}
	if t.isDNL {
		return t.dnlSplitDep(t.card[lhs], t.card[rhs])
	}
	return t.model.SplitDep(outCard, t.card[lhs], t.card[rhs])
}

// ExtractPlan reads the optimal plan for relation set s out of the filled
// table by recursively following best_lhs links, as described for Table 1.
// It returns nil if s has no plan (cost +Inf) — callers should check Cost
// first.
func (t *Table) ExtractPlan(s bitset.Set) *plan.Node {
	if s.IsSingleton() {
		return plan.Leaf(s.Min(), t.card[s])
	}
	e := t.slot[s]
	lhsSet := bitset.Set(e.BestLHS)
	if lhsSet == 0 {
		return nil
	}
	left := t.ExtractPlan(lhsSet)
	right := t.ExtractPlan(s ^ lhsSet)
	if left == nil || right == nil {
		return nil
	}
	return &plan.Node{
		Set:   s,
		Card:  t.card[s],
		Cost:  e.Cost,
		Left:  left,
		Right: right,
	}
}
