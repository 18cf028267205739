// Package deadlock implements the deadlock-handling policy of the paper's
// network model: an FC3D-style distributed detection criterion and the
// parameters of the software-based recovery mechanism.
//
// Detection (approximating López, Martínez & Duato, HPCA'98 workshop): a
// message is *presumed* deadlocked when its header flit has been blocked
// for at least Threshold consecutive cycles while none of the output
// virtual channels its routing function admits is free. The criterion is
// conservative in both directions — like the original, it can flag
// messages that are merely very congested (the paper reports the detected
// fraction as a performance metric precisely because of this) — but it
// never flags a header that still has an unallocated useful channel.
//
// Recovery (approximating Martínez, López, Duato & Pinkston, ICPP'97):
// the presumed-deadlocked message is ejected from the network at the node
// holding its header, every virtual channel it occupies is released, and
// after ProcessingDelay cycles (the software ejection/re-injection cost)
// the whole message is re-injected from that node with priority over
// locally generated traffic. The actual teardown is performed by the
// simulation engine; this package owns the decision logic and its knobs.
package deadlock

import "fmt"

// DefaultThreshold is the paper's FC3D detection threshold (32 cycles).
const DefaultThreshold = 32

// DefaultProcessingDelay models the software cost of ejecting and
// re-injecting a recovered message at a node's local processor.
const DefaultProcessingDelay = 128

// Detector evaluates the detection criterion for blocked headers.
type Detector struct {
	// Threshold is the minimum number of consecutive blocked cycles before
	// a header may be presumed deadlocked.
	Threshold int32
}

// NewDetector returns a detector with the given threshold; threshold < 1
// disables detection entirely.
func NewDetector(threshold int32) Detector {
	return Detector{Threshold: threshold}
}

// Enabled reports whether detection is active.
func (d Detector) Enabled() bool { return d.Threshold >= 1 }

// Deadlocked reports whether a header blocked for blockedCycles consecutive
// cycles, with anyUsefulVCFree telling whether any of its admissible output
// virtual channels is currently unallocated, must be presumed deadlocked.
func (d Detector) Deadlocked(blockedCycles int32, anyUsefulVCFree bool) bool {
	return d.Enabled() && !anyUsefulVCFree && blockedCycles >= d.Threshold
}

// BlockTracker maintains per-virtual-channel consecutive-blockage counters.
// The simulation engine indexes it by a dense input-virtual-channel index.
type BlockTracker struct {
	counters []int32

	// watermark, when positive, maintains hot: the number of counters at or
	// above the watermark. The parallel engine sets it to Threshold-1 and
	// polls Hot to decide whether a recovery could fire in the upcoming
	// allocation phase — a counter can only reach Threshold this cycle if it
	// already stood at Threshold-1, since Blocked advances by one per cycle.
	watermark int32
	hot       int32
}

// NewBlockTracker returns a tracker for n input virtual channels.
func NewBlockTracker(n int) *BlockTracker {
	t := TrackerOver(make([]int32, n))
	return &t
}

// TrackerOver returns a tracker, by value, whose counters are the zeroed slice
// it is given: a caller with many trackers keeps them in one slice and cuts
// their counters from one array. Use it through its address, never a copy.
func TrackerOver(counters []int32) BlockTracker {
	return BlockTracker{counters: counters}
}

// SetWatermark arms hot-counter tracking at the given level (<= 0 disables).
// Call before any counter is non-zero.
func (t *BlockTracker) SetWatermark(w int32) { t.watermark = w }

// Hot returns the number of counters at or above the watermark (0 when
// tracking is disabled).
func (t *BlockTracker) Hot() int32 { return t.hot }

// Blocked records one more blocked cycle for channel i and returns the new
// consecutive count.
func (t *BlockTracker) Blocked(i int) int32 {
	t.counters[i]++
	c := t.counters[i]
	if c == t.watermark {
		t.hot++
	}
	return c
}

// Progress resets channel i's counter; call it whenever the header makes
// any forward progress (allocation or flit movement).
func (t *BlockTracker) Progress(i int) {
	if t.watermark > 0 && t.counters[i] >= t.watermark {
		t.hot--
	}
	t.counters[i] = 0
}

// Count returns channel i's current consecutive-blockage count.
func (t *BlockTracker) Count(i int) int32 { return t.counters[i] }

// AppendCounters appends all per-channel counters to dst (snapshot support).
func (t *BlockTracker) AppendCounters(dst []int32) []int32 {
	return append(dst, t.counters...)
}

// RestoreCounters overwrites the per-channel counters and recomputes hot
// against the tracker's current watermark, so a restored tracker behaves
// identically whether or not watermark tracking is armed (the watermark
// depends on the engine's worker count, which may differ across a
// checkpoint/restore boundary).
func (t *BlockTracker) RestoreCounters(c []int32) error {
	if len(c) != len(t.counters) {
		return fmt.Errorf("deadlock: restoring %d counters into tracker of %d channels",
			len(c), len(t.counters))
	}
	copy(t.counters, c)
	t.hot = 0
	if t.watermark > 0 {
		for _, v := range t.counters {
			if v >= t.watermark {
				t.hot++
			}
		}
	}
	return nil
}
