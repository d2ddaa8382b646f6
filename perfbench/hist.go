package main

import (
	"sort"
	"time"

	"repro/internal/bench"
	"repro/internal/obs"
)

// slotHist is one slot's latency histogram: the bucket geometry of
// bench.Hist (obs.HistBucketOf, ~3% wide), but with 32-bit counts and a
// quantile that interpolates by rank inside the bucket. A run keeps two
// per worker for every 100 ms slot, some 600 per worker over a 30 s
// window, so the narrow counts halve what they add to the harness's
// resident set, which peak_rss_mib counts. The interpolation keeps the
// bounded latency medians, which come from these histograms, off the
// bucket midpoints: pinned to them, a median moves in 3% steps and
// reads the same on many runs.
type slotHist struct {
	counts [obs.HistBuckets]uint32
	n      uint64
}

func (h *slotHist) record(ns uint64) {
	h.counts[obs.HistBucketOf(ns)]++
	h.n++
}

func (h *slotHist) merge(o *slotHist) {
	for i, c := range o.counts {
		h.counts[i] += c
	}
	h.n += o.n
}

// slotBucket returns bucket b's lower bound and width.
func slotBucket(b int) (lo, width float64) {
	w := uint64(1)
	if b >= 2<<obs.HistSubBits {
		w <<= b>>obs.HistSubBits - 1
	}
	return float64(obs.HistBucketMid(b) - w/2), float64(w)
}

// quantile returns the q-quantile in nanoseconds (0 when empty).
func (h *slotHist) quantile(q float64) float64 {
	if h.n == 0 {
		return 0
	}
	target := q * float64(h.n)
	var cum float64
	for b, c := range h.counts {
		if c == 0 {
			continue
		}
		if cum+float64(c) >= target {
			lo, w := slotBucket(b)
			return lo + w*(target-cum)/float64(c)
		}
		cum += float64(c)
	}
	return 0 // unreachable: the counts sum to n
}

// The measured window is cut into slots. Host steal varies from one
// slot to the next, and a closed loop's latency stretches with it, so
// the latency medians are taken over the calmest slots only: those
// with the least steal, where latency reflects the program rather than
// its neighbours. The whole-window figures are printed as context.
const (
	slotLen  = 100 * time.Millisecond
	calmFrac = 0.25 // share of slots the latency medians are taken over
)

// window is the measured interval, shared by the workers; start is set
// before the measure phase is published to them.
type window struct {
	start time.Time
	slots int
}

func newWindow(d time.Duration) *window {
	return &window{slots: int(d/slotLen) + 2}
}

// recorder is one worker's latency record: whole-window histograms per
// op kind, and per-slot histograms of Gets and writes.
type recorder struct {
	ops   [numOps]bench.Hist
	slots [][2]slotHist // [slot][0 gets, 1 writes]
}

func newRecorder(win *window) *recorder {
	return &recorder{slots: make([][2]slotHist, win.slots)}
}

func (r *recorder) record(win *window, op int, d time.Duration, end time.Time) {
	r.ops[op].RecordDur(d)
	if op == opScan {
		return
	}
	s := int(end.Sub(win.start) / slotLen)
	if s >= 0 && s < len(r.slots) {
		class := 0
		if op != opGet {
			class = 1
		}
		r.slots[s][class].record(uint64(d))
	}
}

// stealMeter samples the host's CPU ticks at every slot boundary.
type stealMeter struct {
	ticks []hostTicks // ticks[j] read at start + j*slotLen
	stop  chan struct{}
	done  chan struct{}
}

func startStealMeter(win *window) *stealMeter {
	m := &stealMeter{ticks: []hostTicks{readHost()}, stop: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(m.done)
		for j := 1; j < win.slots; j++ {
			select {
			case <-m.stop:
				return
			case <-time.After(time.Until(win.start.Add(time.Duration(j) * slotLen))):
			}
			m.ticks = append(m.ticks, readHost())
		}
	}()
	return m
}

// finish stops sampling; ticks is safe to read once it returns.
func (m *stealMeter) finish() {
	close(m.stop)
	<-m.done
}

// calmSlots returns the complete slots with the least steal.
func (m *stealMeter) calmSlots() []int {
	n := len(m.ticks) - 1
	if n <= 0 {
		return nil
	}
	share := make([]float64, n)
	for j := range share {
		share[j] = stealShare(m.ticks[j], m.ticks[j+1])
	}
	return calmest(share)
}

// calmest returns the indexes of the intervals with the least steal:
// calmFrac of them (at least one), plus every interval whose steal is
// no more than theirs, so a run without steal uses all of its intervals
// rather than an arbitrary quarter.
func calmest(share []float64) []int {
	n := len(share)
	if n == 0 {
		return nil
	}
	idx := make([]int, n)
	for j := range idx {
		idx[j] = j
	}
	sort.SliceStable(idx, func(a, b int) bool { return share[idx[a]] < share[idx[b]] })
	k := int(float64(n) * calmFrac)
	if k < 1 {
		k = 1
	}
	for k < n && share[idx[k]] <= share[idx[k-1]] {
		k++
	}
	return idx[:k]
}

// setupLog records a run's set-ups: the wall time of each and the host
// steal share while it ran. setup_s is the median over the calmest of
// them, chosen by the rule of the calm slots: a set-up is a burst of
// process starts and preload round trips, and its wall time stretches
// with steal just as a closed loop's latency does.
type setupLog struct {
	secs, steal []float64
	h0          hostTicks
	t0          time.Time
}

func (l *setupLog) start() {
	l.h0, l.t0 = readHost(), time.Now()
}

func (l *setupLog) end() {
	l.secs = append(l.secs, time.Since(l.t0).Seconds())
	l.steal = append(l.steal, stealShare(l.h0, readHost()))
}

// median is setup_s.
func (l *setupLog) median() float64 {
	var calm []float64
	for _, j := range calmest(l.steal) {
		calm = append(calm, l.secs[j])
	}
	return median(calm)
}

// latSummary is a run's latency picture.
type latSummary struct {
	ops                [numOps]bench.Hist
	calmGet, calmWrite slotHist
	calmSteal          float64 // mean steal share over the calm slots
	calmSlots          int
}

// summarize merges the workers' records: whole-window histograms per op
// kind, and Gets and writes over the calm slots.
func summarize(recs []*recorder, m *stealMeter) latSummary {
	calm := m.calmSlots()
	var s latSummary
	for _, r := range recs {
		for op := range r.ops {
			s.ops[op].Merge(&r.ops[op])
		}
		for _, j := range calm {
			s.calmGet.merge(&r.slots[j][0])
			s.calmWrite.merge(&r.slots[j][1])
		}
	}
	for _, j := range calm {
		s.calmSteal += stealShare(m.ticks[j], m.ticks[j+1]) / float64(len(calm))
	}
	s.calmSlots = len(calm)
	return s
}
