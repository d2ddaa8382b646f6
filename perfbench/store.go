package main

import (
	"fmt"
	"runtime"
	"runtime/debug"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/kvstore"
	"repro/internal/obs"
)

// Window phases, shared by every worker of a run.
const (
	phaseWarm = iota
	phaseMeasure
	phaseStop
)

var storeSpan = [numOps]string{"store.get", "store.put", "store.del", "store.scan"}

// storeWorker drives the in-process store from one goroutine with its
// own reclamation tid.
type storeWorker struct {
	id, n, tid int
	r          *rng
	sh         *shadow
	seq        uint32
	rec        *recorder
	ops        atomic.Uint64 // ops completed inside the window
	attempted  uint64        // ops issued inside the window
	failed     uint64        // of those, ops the store returned an error for
	errs       violations    // their errors, for the report
	v          violations
	tr         *tracer
}

func (sw *storeWorker) run(w *workload, z *zipf, st *kvstore.Store, win *window, phase *atomic.Int32) {
	for {
		ph := phase.Load()
		if ph == phaseStop {
			return
		}
		op := w.pick(sw.r)
		key := z.key(sw.r)
		var t0 time.Time
		var d time.Duration
		var err error
		switch op {
		case opGet:
			var v uint64
			var found bool
			t0 = time.Now()
			v, found, err = st.Get(sw.tid, key)
			d = time.Since(t0)
			if err != nil {
				break
			}
			if got := asVal(v, found); sw.sh.owns(key) {
				sw.v.add(checkOwnedGet(key, got, sw.sh.get(key)))
			} else {
				sw.v.add(checkForeignGet(key, got))
			}
		case opPut:
			key = owned(key, sw.id, sw.n)
			sw.seq++
			val := encodeVal(key, sw.seq)
			var ins bool
			t0 = time.Now()
			ins, err = st.Put(sw.tid, key, val)
			d = time.Since(t0)
			if err != nil {
				break
			}
			sw.v.add(checkWriteResult(opPut, key, sw.sh.get(key), ins))
			sw.sh.set(key, val)
		case opDel:
			key = owned(key, sw.id, sw.n)
			var found bool
			t0 = time.Now()
			found, err = st.Del(sw.tid, key)
			d = time.Since(t0)
			if err != nil {
				break
			}
			sw.v.add(checkWriteResult(opDel, key, sw.sh.get(key), found))
			sw.sh.set(key, 0)
		case opScan:
			var pairs []uint64
			t0 = time.Now()
			pairs, err = st.Scan(sw.tid, key, w.scanLimit)
			d = time.Since(t0)
			if err != nil {
				break
			}
			sw.v.add(checkScan(key, w.scanLimit, pairs))
			sw.v.add(checkOwnedInScan(sw.sh, w.keys, key, w.scanLimit, pairs))
		}
		if ph == phaseMeasure {
			sw.attempted++
			if err != nil {
				sw.failed++
				sw.errs.add(fmt.Errorf("%s %d: %w", opNames[op], key, err))
			} else {
				sw.rec.record(win, op, d, t0.Add(d))
				sw.ops.Add(1)
			}
		}
		if sw.tr != nil {
			s := int64(t0.Sub(sw.tr.base))
			id := sw.tr.id()
			sw.tr.add(id, id, 0, storeSpan[op], s, s+int64(d))
		}
	}
}

// storeEdge is the state at one edge of the measured window.
type storeEdge struct {
	at    time.Time
	ops   uint64
	cpu   time.Duration
	host  hostTicks
	mem   runtime.MemStats
	arena kvstore.SideStats // Allocs, MagRefills, Slots summed over indexes
	reg   scrape
}

func runStore(w workload, o options) (*result, error) {
	n := o.workers
	z := newZipf(w.keys, w.theta)
	res := &result{metrics: map[string]float64{}}

	// Set up w.setups times and keep the last store; setup_s is the
	// median. Earlier stores are dropped and collected first so they do
	// not inflate the peak resident set.
	var st *kvstore.Store
	var reg *obs.Registry
	var shadows []*shadow
	var setups setupLog
	for i := 0; i < w.setups; i++ {
		st, shadows = nil, nil
		runtime.GC()
		debug.FreeOSMemory()
		shadows = make([]*shadow, n)
		for id := range shadows {
			shadows[id] = newShadow(id, n, w.keys)
		}
		if o.trace {
			reg = obs.NewRegistry()
		}
		setups.start()
		s, err := kvstore.New(kvstore.Config{Scheme: w.scheme, Metrics: reg})
		if err != nil {
			return nil, err
		}
		for k := uint64(1); k <= w.keys; k++ {
			if !preloaded(k) {
				continue
			}
			v := encodeVal(k, 0)
			if _, err := s.Put(0, k, v); err != nil {
				return nil, err
			}
			shadows[(k-1)%uint64(n)].set(k, v)
		}
		setups.end()
		st = s
	}

	base := time.Now()
	win := newWindow(o.window)
	ws := make([]*storeWorker, n)
	recs := make([]*recorder, n)
	for id := range ws {
		recs[id] = newRecorder(win)
		ws[id] = &storeWorker{id: id, n: n, tid: id + 1, r: newRNG(o.seed, uint64(id)), sh: shadows[id], rec: recs[id]}
		if o.trace {
			ws[id].tr = newTracer(base, id)
		}
	}
	var phase atomic.Int32
	var wg sync.WaitGroup
	for _, sw := range ws {
		wg.Add(1)
		go func(sw *storeWorker) {
			defer wg.Done()
			sw.run(&w, z, st, win, &phase)
		}(sw)
	}

	edge := func() storeEdge {
		e := storeEdge{at: time.Now(), cpu: selfCPU(), host: readHost()}
		for _, sw := range ws {
			e.ops += sw.ops.Load()
		}
		if o.trace {
			runtime.ReadMemStats(&e.mem)
			for _, s := range st.Stats().Sides {
				e.arena.Allocs += s.Allocs
				e.arena.MagRefills += s.MagRefills
				e.arena.Slots += s.Slots
			}
			e.reg = registryScrape(reg)
		}
		return e
	}
	time.Sleep(warmup)
	win.start = time.Now()
	meter := startStealMeter(win)
	phase.Store(phaseMeasure)
	e0 := edge()
	time.Sleep(o.window)
	e1 := edge()
	phase.Store(phaseStop)
	meter.finish()
	wg.Wait()

	ops := e1.ops - e0.ops
	for _, sw := range ws {
		res.attempted += sw.attempted
		res.failed += sw.failed
		for _, msg := range sw.errs.list() {
			res.errors = append(res.errors, fmt.Sprintf("worker %d: %s", sw.id, msg))
		}
	}
	lat := summarize(recs, meter)
	cpu := perOp(float64(e1.cpu-e0.cpu), ops)
	rss, err := peakRSS(0)
	if err != nil {
		return nil, err
	}
	stats := st.Stats()
	wall := e1.at.Sub(e0.at)
	res.context = runContext(e0.host, e1.host, wall, ops, &setups, lat)
	if o.trace {
		m := res.metrics
		m["client.cpu_ns_per_op"] = cpu
		m["store.scan_p50_us"] = float64(lat.ops[opScan].Quantile(0.5)) / 1e3
		m["arena.allocs_per_op"] = perOp(float64(e1.arena.Allocs-e0.arena.Allocs), ops)
		m["arena.mag_refills_per_kop"] = 1e3 * perOp(float64(e1.arena.MagRefills-e0.arena.MagRefills), ops)
		m["arena.slots"] = float64(e1.arena.Slots)
		reclaimLayer(m, []scrape{e0.reg}, []scrape{e1.reg}, ops)
		m["runtime.allocs_per_op"] = perOp(float64(e1.mem.Mallocs-e0.mem.Mallocs), ops)
		m["runtime.gc_per_mop"] = 1e6 * perOp(float64(e1.mem.NumGC-e0.mem.NumGC), ops)
		m["trace.cpu_ns_per_op"] = cpu
		path := fmt.Sprintf("%s/traces/%s-seed%d.jsonl", o.out, w.name, o.seed)
		tr := make([]*tracer, n)
		for i, sw := range ws {
			tr[i] = sw.tr
		}
		if err := writeTraces(path, tr); err != nil {
			return nil, err
		}
		res.context = append(res.context, "spans: "+path)
	} else {
		m := res.metrics
		m["cpu_ns_per_op"] = cpu
		m["get_p50_us"] = lat.calmGet.quantile(0.5) / 1e3
		m["write_p50_us"] = lat.calmWrite.quantile(0.5) / 1e3
		m["setup_s"] = setups.median()
		m["peak_rss_mib"] = float64(rss) / (1 << 20)
		m["peak_arena_objects"] = float64(stats.MaxLive)
	}

	var v violations
	for _, sw := range ws {
		for _, msg := range sw.v.list() {
			v.add(fmt.Errorf("worker %d: %s", sw.id, msg))
		}
	}
	pairs, err := readback(kvstore.MaxScanLimit, func(from uint64, limit int) ([]uint64, error) {
		return st.Scan(0, from, limit)
	})
	v.add(err)
	if err == nil {
		v.add(checkReadback(pairs, shadows))
	}
	v.add(checkLeak(st.DrainAndCheck(0)))
	res.violations = v.list()
	return res, nil
}

// registryScrape renders an in-process registry the way /metrics does,
// so the same sums apply to both.
func registryScrape(reg *obs.Registry) scrape {
	s := scrape{metrics: map[string]float64{}}
	if reg == nil {
		return s
	}
	for _, m := range reg.Snapshot() {
		if m.Hist != nil {
			s.metrics[m.Name+".count"] = float64(m.Hist.Count)
			s.metrics[m.Name+".mean_us"] = m.Hist.MeanUs
			continue
		}
		s.metrics[m.Name] = float64(m.Value)
	}
	return s
}

// reclaimLayer fills the reclaim.* metrics from the manual schemes'
// counters, summed over every index of every store (all zero under
// orcgc, which has no scan engine).
func reclaimLayer(m map[string]float64, s0, s1 []scrape, ops uint64) {
	var scans, elisions, scanNs, pendMax float64
	for i := range s1 {
		scans += s1[i].sum("reclaim/", "/scans") - s0[i].sum("reclaim/", "/scans")
		elisions += s1[i].sum("reclaim/", "/elisions") - s0[i].sum("reclaim/", "/elisions")
		_, ns1 := s1[i].histTotal("reclaim/", "/scan_ns")
		_, ns0 := s0[i].histTotal("reclaim/", "/scan_ns")
		scanNs += ns1 - ns0
		pendMax += s1[i].sum("reclaim/", "/pending_max")
	}
	m["reclaim.scans_per_kop"] = 1e3 * perOp(scans, ops)
	m["reclaim.scan_ns_per_op"] = perOp(scanNs, ops)
	m["reclaim.elisions_per_op"] = perOp(elisions, ops)
	m["reclaim.pending_max"] = pendMax
}
