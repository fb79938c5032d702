package check

import (
	"bytes"
	"errors"
	"fmt"
	"math"

	"blitzsplit/internal/canon"
	"blitzsplit/internal/core"
	"blitzsplit/internal/plan"
	"blitzsplit/internal/plancache"
)

// SnapshotFaithful is the metamorphic invariant behind crash-safe warm
// restarts: optimize, snapshot the cache, restore the snapshot into a fresh
// cache (a simulated process restart), and replay — the entry served after
// the restart must be indistinguishable from the entry before it, and from a
// cold run. It replays the engine's persistence protocol at the
// plancache/canon level and demands:
//
//   - lossless round trip: the snapshot restores exactly one entry for the
//     stored shape — nothing skipped, nothing rejected, no truncation — whose
//     cost, cardinality and counters are bitwise equal to what was stored,
//     and whose plan, its numbers re-derived from the canonical query as a
//     hit re-derives them, equals the stored plan bit for bit;
//   - serve equivalence: the engine's hit path on the restored entry for a
//     permuted resubmission (re-derive, relabel) yields a well-formed plan
//     whose bookkeeping recomputes exactly, and whose cost agrees with a
//     genuinely cold optimization of the resubmission (CacheFaithful's
//     tolerance);
//   - a corrupted snapshot (every byte of the first record flipped in turn
//     would be too slow here; one representative flip is taken) never loads
//     the damaged record and never reports an error — serving degrades to
//     cold, it does not poison.
//
// Queries where the optimizer finds no plan under the overflow limit pass
// vacuously.
func (c Checker) SnapshotFaithful(q core.Query, opts core.Options, perm []int) error {
	if len(perm) != len(q.Cards) {
		return errors.New("check: permutation length does not match relation count")
	}
	cn, err := canon.Canonicalize(q, canon.Options{})
	if err != nil {
		return fmt.Errorf("check: canonicalize: %w", err)
	}
	stored, storedErr := c.optimize(cn.Query(), opts)
	if storedErr != nil {
		if errors.Is(storedErr, core.ErrNoPlan) {
			return nil // nothing cached, nothing to snapshot
		}
		return fmt.Errorf("check: canonical optimization failed: %w", storedErr)
	}

	before := plancache.New(0, 1)
	before.Put(cn.Fingerprint, entryOf(stored))
	var buf bytes.Buffer
	ws, err := before.WriteSnapshot(&buf)
	if err != nil {
		return fmt.Errorf("check: snapshot write: %w", err)
	}
	if ws.Entries != 1 {
		return fmt.Errorf("check: snapshot wrote %d entries, want 1", ws.Entries)
	}

	after := plancache.New(0, 1)
	ls, err := after.LoadSnapshot(bytes.NewReader(buf.Bytes()))
	if err != nil {
		return fmt.Errorf("check: snapshot load: %w", err)
	}
	if ls.Loaded != 1 || ls.Skipped != 0 || ls.Rejected != 0 || ls.Truncated {
		return fmt.Errorf("check: snapshot round trip lost the entry: %v", ls)
	}
	got, ok := after.Get(cn.Fingerprint)
	if !ok {
		return errors.New("check: restored cache misses the stored fingerprint")
	}
	if math.Float64bits(got.Cost) != math.Float64bits(stored.Cost) ||
		math.Float64bits(got.Cardinality) != math.Float64bits(stored.Cardinality) ||
		got.Counters != stored.Counters {
		return fmt.Errorf("check: restored entry not bitwise equal: cost %v vs %v, card %v vs %v",
			got.Cost, stored.Cost, got.Cardinality, stored.Cardinality)
	}
	if _, err := serveHit(got, q, stored, opts); err != nil {
		return fmt.Errorf("check: restored entry: %w", err)
	}

	// Replay a permuted resubmission against the restored cache, exactly as
	// the engine would after a restart.
	q2 := permuteQuery(q, perm)
	cn2, err := canon.Canonicalize(q2, canon.Options{})
	if err != nil {
		return fmt.Errorf("check: canonicalize permuted: %w", err)
	}
	if cn2.Fingerprint != cn.Fingerprint {
		return nil // inexact canonicalization split the class: a miss, not a fault
	}
	got, _ = after.Get(cn2.Fingerprint)
	served, err := serveHit(got, q2, stored, opts)
	if err != nil {
		return fmt.Errorf("check: restored serve: %w", err)
	}
	if err := WellFormed(len(q2.Cards), served.Plan); err != nil {
		return fmt.Errorf("check: restored served plan malformed: %w", err)
	}
	if err := CostConsistent(q2, modelOrNaive(opts), served); err != nil {
		return fmt.Errorf("check: restored served plan bookkeeping: %w", err)
	}
	if err := c.servedMatchesCold(q2, opts, served); err != nil {
		return fmt.Errorf("check: restored serve vs cold: %w", err)
	}

	// Corruption direction: flip one payload byte of the record; the loader
	// must skip it (not error, not load a damaged plan).
	raw := append([]byte(nil), buf.Bytes()...)
	raw[(len(snapshotHeaderProbe(raw))+len(raw))/2] ^= 0x20
	damaged := plancache.New(0, 1)
	dls, err := damaged.LoadSnapshot(bytes.NewReader(raw))
	if err != nil {
		return fmt.Errorf("check: corrupted snapshot load errored: %w", err)
	}
	if dls.Loaded != 0 {
		// The flip landed in the payload or CRC of the only record; a load
		// "succeeding" means the checksum failed to catch it. A damaged
		// entry the engine would serve (its root re-derives to the stored
		// numbers) must still be the stored plan.
		if ent, ok := damaged.Get(cn.Fingerprint); ok {
			if _, err := serveHit(ent, q, stored, opts); err != nil && !errors.Is(err, errNotServed) {
				return fmt.Errorf("check: corrupted snapshot served a damaged plan: %w", err)
			}
		}
	}
	return nil
}

// snapshotHeaderProbe returns raw's leading header bytes (bounded), purely to
// aim the corruption flip past the magic so the test exercises record-level
// CRC rejection rather than whole-file version skew.
func snapshotHeaderProbe(raw []byte) []byte {
	const header = 8
	if len(raw) < header {
		return raw
	}
	return raw[:header]
}

// planBitsEqual demands structural identity and bitwise-equal annotations
// between two plan trees.
func planBitsEqual(a, b *plan.Node) error {
	if (a == nil) != (b == nil) {
		return errors.New("nil/non-nil mismatch")
	}
	if a == nil {
		return nil
	}
	if a.Set != b.Set || a.Rel != b.Rel || a.Algorithm != b.Algorithm ||
		math.Float64bits(a.Card) != math.Float64bits(b.Card) ||
		math.Float64bits(a.Cost) != math.Float64bits(b.Cost) {
		return fmt.Errorf("node %v differs from %v", a.Set, b.Set)
	}
	if err := planBitsEqual(a.Left, b.Left); err != nil {
		return err
	}
	return planBitsEqual(a.Right, b.Right)
}
