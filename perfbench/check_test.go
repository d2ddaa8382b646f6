package main

import (
	"net"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/kvstore"
)

// The checker must reject each fault it exists to catch. Every case
// plants one fault into otherwise valid output.

func TestCheckerRejectsWrongValue(t *testing.T) {
	sh := newShadow(0, 2, 64)
	sh.set(5, encodeVal(5, 7))
	if err := checkOwnedGet(5, encodeVal(5, 7), sh.get(5)); err != nil {
		t.Fatalf("right value rejected: %v", err)
	}
	for _, got := range []uint64{encodeVal(5, 6), encodeVal(5, 8), 0} {
		if checkOwnedGet(5, got, sh.get(5)) == nil {
			t.Errorf("owned get returning %s accepted, shadow holds %s", describe(got), describe(sh.get(5)))
		}
	}
	// In-flight writes widen the allowed set, but only by their values.
	if err := checkOwnedGet(5, encodeVal(5, 9), sh.get(5), encodeVal(5, 9), 0); err != nil {
		t.Fatalf("in-flight value rejected: %v", err)
	}
	if checkOwnedGet(5, encodeVal(5, 8), sh.get(5), encodeVal(5, 9), 0) == nil {
		t.Error("value of no write accepted")
	}
	if checkForeignGet(6, encodeVal(8, 1)) == nil {
		t.Error("foreign get returning another key's value accepted")
	}
	if err := checkForeignGet(6, encodeVal(6, 1)); err != nil {
		t.Errorf("foreign get of its own key rejected: %v", err)
	}
	if checkWriteResult(opPut, 5, encodeVal(5, 7), true) == nil {
		t.Error("put reporting an insert over a present key accepted")
	}
	if checkWriteResult(opDel, 5, 0, true) == nil {
		t.Error("del finding an absent key accepted")
	}
}

func TestCheckerRejectsBadScan(t *testing.T) {
	ok := []uint64{3, encodeVal(3, 0), 5, encodeVal(5, 1), 9, encodeVal(9, 0)}
	if err := checkScan(2, 3, ok); err != nil {
		t.Fatalf("valid scan rejected: %v", err)
	}
	for name, c := range map[string]struct {
		from  uint64
		limit int
		pairs []uint64
	}{
		"out of order":   {2, 3, []uint64{3, encodeVal(3, 0), 9, encodeVal(9, 0), 5, encodeVal(5, 1)}},
		"duplicate key":  {2, 3, []uint64{3, encodeVal(3, 0), 3, encodeVal(3, 0)}},
		"before from":    {4, 3, ok},
		"over limit":     {2, 2, ok},
		"foreign value":  {2, 3, []uint64{3, encodeVal(4, 0)}},
		"odd result len": {2, 3, ok[:3]},
	} {
		if checkScan(c.from, c.limit, c.pairs) == nil {
			t.Errorf("%s: scan accepted", name)
		}
	}

	sh := newShadow(1, 2, 16) // owns 2, 4, 6, ...
	sh.set(4, encodeVal(4, 2))
	sh.set(8, encodeVal(8, 3))
	full := []uint64{3, encodeVal(3, 0), 4, encodeVal(4, 2), 7, encodeVal(7, 1), 8, encodeVal(8, 3)}
	if err := checkOwnedInScan(sh, 16, 1, 4, full); err != nil {
		t.Fatalf("valid scan rejected against the shadow: %v", err)
	}
	missing := []uint64{3, encodeVal(3, 0), 7, encodeVal(7, 1), 8, encodeVal(8, 3), 9, encodeVal(9, 0)}
	if checkOwnedInScan(sh, 16, 1, 4, missing) == nil {
		t.Error("scan skipping an owned present key accepted")
	}
}

func TestCheckerRejectsBadReadback(t *testing.T) {
	shadows := []*shadow{newShadow(0, 2, 8), newShadow(1, 2, 8)}
	shadows[0].set(1, encodeVal(1, 4))
	shadows[1].set(4, encodeVal(4, 2))
	if err := checkReadback([]uint64{1, encodeVal(1, 4), 4, encodeVal(4, 2)}, shadows); err != nil {
		t.Fatalf("matching read-back rejected: %v", err)
	}
	for name, pairs := range map[string][]uint64{
		"stale value": {1, encodeVal(1, 3), 4, encodeVal(4, 2)},
		"lost key":    {1, encodeVal(1, 4)},
		"extra key":   {1, encodeVal(1, 4), 3, encodeVal(3, 1), 4, encodeVal(4, 2)},
	} {
		if checkReadback(pairs, shadows) == nil {
			t.Errorf("%s: read-back accepted", name)
		}
	}
	// A paged read-back shape-checks every page.
	pages := map[uint64][]uint64{1: {1, encodeVal(1, 4)}, 2: {4, encodeVal(4, 2), 3, encodeVal(3, 1)}}
	if _, err := readback(2, func(from uint64, _ int) ([]uint64, error) { return pages[from], nil }); err == nil {
		t.Error("read-back with an out-of-order page accepted")
	}
}

func TestCheckerRejectsFailedLeakVerdict(t *testing.T) {
	if err := checkLeak(kvstore.DrainReport{Scheme: "hp", Baseline: 16, Live: 16, LeakOK: true}); err != nil {
		t.Fatalf("passing verdict rejected: %v", err)
	}
	if checkLeak(kvstore.DrainReport{Scheme: "hp", Baseline: 16, Live: 40, LeakOK: false}) == nil {
		t.Error("failed leak verdict accepted")
	}
}

// An in-process store run end to end, tiny: the checks pass on the real
// program and the leak verdict comes from a real drain.
func TestStoreRunPasses(t *testing.T) {
	w, err := findWorkload("store-churn")
	if err != nil {
		t.Fatal(err)
	}
	w.keys = 1 << 10
	res, err := runStore(w, options{seed: 3, window: 200e6, workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.violations) > 0 || res.attempted == 0 {
		t.Fatalf("violations %v, attempted %d", res.violations, res.attempted)
	}
}

func TestCalmSlots(t *testing.T) {
	at := func(steal ...int64) *stealMeter {
		m := &stealMeter{ticks: []hostTicks{{}}}
		var tot, st int64
		for _, s := range steal {
			tot, st = tot+20, st+s
			m.ticks = append(m.ticks, hostTicks{total: tot, steal: st})
		}
		return m
	}
	if got := at(5, 0, 9, 1, 3, 7, 2, 8).calmSlots(); len(got) != 2 || got[0] != 1 || got[1] != 3 {
		t.Errorf("calm slots %v, want [1 3]", got)
	}
	if got := at(0, 0, 0, 0, 0, 0, 0, 0).calmSlots(); len(got) != 8 {
		t.Errorf("a window without steal uses %d of 8 slots", len(got))
	}
}

func TestSetupMedianOverCalmSetups(t *testing.T) {
	l := setupLog{
		secs:  []float64{0.020, 0.045, 0.018, 0.060, 0.022, 0.019, 0.050, 0.021},
		steal: []float64{0.00, 0.40, 0.00, 0.50, 0.10, 0.00, 0.30, 0.20},
	}
	if got := l.median(); got != 0.019 {
		t.Errorf("setup median %v, want 0.019 (the three set-ups without steal)", got)
	}
}

// A connection that is lost mid-window counts every request still in
// its window as attempted and failed, and reports the error.
func TestLostConnectionCountsFailed(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	go func() {
		if c, err := ln.Accept(); err == nil {
			c.Close()
		}
	}()
	cl, err := kvstore.Dial(ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	w, _ := findWorkload("direct-read")
	win := newWindow(time.Second)
	c := &wireConn{id: 0, n: 1, cl: cl, r: newRNG(1, 0), sh: newShadow(0, 1, w.keys),
		acked: newShadow(0, 1, w.keys), ordered: true, ring: make([]pending, 2*w.window), rec: newRecorder(win)}
	var phase atomic.Int32
	if err := c.run(&w, newZipf(w.keys, w.theta), win, &phase); err == nil {
		t.Fatal("run on a closed connection returned no error")
	}
	if c.failed == 0 || c.failed > uint64(w.window) || c.attempted != c.failed {
		t.Errorf("failed %d, attempted %d; want the lost window (1..%d) in both", c.failed, c.attempted, w.window)
	}
}
