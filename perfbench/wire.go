package main

import (
	"context"
	"fmt"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/kvstore"
)

// deployment is one set-up of the program's processes: the kvservers,
// the kvproxy in front of them (proxy workloads), the harness's data
// connections to the entry point and one STATS connection per server.
type deployment struct {
	servers []*child
	proxy   *child
	conns   []*kvstore.Client
	stats   []*kvstore.Client
}

func (d *deployment) procs() []*child {
	if d.proxy == nil {
		return d.servers
	}
	return append(append([]*child(nil), d.servers...), d.proxy)
}

func (d *deployment) closeConns() {
	for _, c := range append(d.conns, d.stats...) {
		c.Close()
	}
	d.conns, d.stats = nil, nil
}

// kill ends every process at once; for error paths.
func (d *deployment) kill() {
	d.closeConns()
	for _, c := range d.procs() {
		c.kill()
	}
}

// tearDown stops the proxy, then drains every server and checks its
// leak verdict. Every process has ended when it returns.
func (d *deployment) tearDown() []error {
	d.closeConns()
	var errs []error
	if d.proxy != nil {
		if err := d.proxy.stop(30 * time.Second); err != nil {
			errs = append(errs, fmt.Errorf("kvproxy: %v; stderr: %s", err, lastLines(d.proxy.stderr.String(), 3)))
		}
	}
	for _, s := range d.servers {
		if err := s.drainVerdict(); err != nil {
			errs = append(errs, err)
		}
	}
	return errs
}

// setUp starts the processes, waits for each stage to accept
// connections, dials the data connections and preloads half the
// keyspace through them.
func setUp(w workload, o options, shadows []*shadow) (*deployment, error) {
	d := &deployment{}
	ok := false
	defer func() {
		if !ok {
			d.kill()
		}
	}()
	nServers := 1
	if w.wire == "proxy" {
		nServers = 2
	}
	for i := 0; i < nServers; i++ {
		c, err := startProc(o, fmt.Sprintf("kvserver%d", i), "kvserver", "-reclaim", w.scheme)
		if err != nil {
			return nil, err
		}
		d.servers = append(d.servers, c)
	}
	// A proxy started before its backends listen would spend its
	// reconnect backoff; wait for the servers first.
	for _, s := range d.servers {
		cl, err := dialReady(s.addr, d.servers, 30*time.Second)
		if err != nil {
			return nil, err
		}
		d.stats = append(d.stats, cl)
	}
	entry := d.servers[0]
	if w.wire == "proxy" {
		addrs := make([]string, len(d.servers))
		for i, s := range d.servers {
			addrs[i] = s.addr
		}
		c, err := startProc(o, "kvproxy", "kvproxy", "-backends", strings.Join(addrs, ","), "-replicas", "2")
		if err != nil {
			return nil, err
		}
		d.proxy, entry = c, c
	}
	for range shadows {
		cl, err := dialReady(entry.addr, d.procs(), 30*time.Second)
		if err != nil {
			return nil, err
		}
		d.conns = append(d.conns, cl)
	}

	// Each connection preloads its own keys, pipelined.
	errs := make([]error, len(shadows))
	var wg sync.WaitGroup
	for id, sh := range shadows {
		wg.Add(1)
		go func(id int, sh *shadow, cl *kvstore.Client) {
			defer wg.Done()
			errs[id] = preload(cl, sh, w.keys)
		}(id, sh, d.conns[id])
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	ok = true
	return d, nil
}

// startProc starts one kvserver or kvproxy on fresh loopback ports, with
// /metrics and /debug/pprof when the run is traced.
func startProc(o options, name, bin string, args ...string) (*child, error) {
	addr, err := freeAddr()
	if err != nil {
		return nil, err
	}
	args = append(args, "-addr", addr)
	var maddr string
	if o.trace {
		if maddr, err = freeAddr(); err != nil {
			return nil, err
		}
		args = append(args, "-metrics", maddr, "-pprof")
	}
	c, err := startChild(name, o.bin+"/"+bin, args...)
	if err != nil {
		return nil, err
	}
	c.addr, c.maddr = addr, maddr
	return c, nil
}

func preload(cl *kvstore.Client, sh *shadow, keys uint64) error {
	const batch = 256
	var sent []uint64
	for i := 0; ; i++ {
		k := sh.key(i)
		if k <= keys && preloaded(k) {
			cl.SendPut(k, encodeVal(k, 0))
			sent = append(sent, k)
		}
		if len(sent) == batch || (k > keys && len(sent) > 0) {
			if err := cl.Flush(); err != nil {
				return fmt.Errorf("preload: %w", err)
			}
			for _, k := range sent {
				ins, err := cl.RecvPut()
				if err != nil {
					return fmt.Errorf("preload put %d: %w", k, err)
				}
				if !ins {
					return fmt.Errorf("preload put %d: key already present in a fresh store", k)
				}
				sh.set(k, encodeVal(k, 0))
			}
			sent = sent[:0]
		}
		if k > keys {
			return nil
		}
	}
}

// pending is one request in a connection's window.
type pending struct {
	op       int
	key, val uint64 // a scan's key is its from
	sent     time.Time
	measured bool   // sent inside the window, so counted as attempted
	expect   uint64 // owned key: its value once every earlier request executed
	acked    uint64 // owned key: its value as of the last acknowledged write
	sendSpan [2]int64
}

// wireConn keeps w.window requests in flight on one pipelined
// connection: each response is checked and immediately replaced by the
// next request, from the same goroutine, so nothing sleeps or polls.
// Responses come back in request order.
type wireConn struct {
	id, n   int
	cl      *kvstore.Client
	r       *rng
	sh      *shadow // every write sent so far, in send order
	acked   *shadow // writes acknowledged so far
	ordered bool    // the path executes one connection's requests in order
	ring    []pending
	seq     uint32
	rec     *recorder
	ops     atomic.Uint64 // responses received inside the window
	// attempted counts the requests sent inside the window; failed,
	// those lost when the connection failed (after which it stops).
	attempted, failed uint64
	scanBuf           []uint64
	v                 violations
	tr                *tracer
	sendNs            atomic.Int64 // traced: time inside Send+Flush during the window
	allowed           []uint64
}

func (c *wireConn) send(w *workload, z *zipf, idx uint64, ph int32) error {
	p := &c.ring[idx%uint64(len(c.ring))]
	p.op = w.pick(c.r)
	p.key = z.key(c.r)
	p.measured = ph == phaseMeasure
	if p.measured {
		c.attempted++
	}
	if p.op == opPut || p.op == opDel {
		p.key = owned(p.key, c.id, c.n)
	}
	if c.sh.owns(p.key) {
		p.expect, p.acked = c.sh.get(p.key), c.acked.get(p.key)
	}
	p.val = 0
	if p.op == opPut {
		c.seq++
		p.val = encodeVal(p.key, c.seq)
	}
	if p.op == opPut || p.op == opDel {
		c.sh.set(p.key, p.val)
	}
	p.sent = time.Now()
	switch p.op {
	case opGet:
		c.cl.SendGet(p.key)
	case opPut:
		c.cl.SendPut(p.key, p.val)
	case opDel:
		c.cl.SendDel(p.key)
	case opScan:
		c.cl.SendScan(p.key, uint32(w.scanLimit))
	}
	if err := c.cl.Flush(); err != nil {
		return fmt.Errorf("conn %d: flush: %w", c.id, err)
	}
	if c.tr != nil {
		end := time.Now()
		p.sendSpan = [2]int64{int64(p.sent.Sub(c.tr.base)), int64(end.Sub(c.tr.base))}
		if ph == phaseMeasure {
			c.sendNs.Add(int64(end.Sub(p.sent)))
		}
	}
	return nil
}

var wireSpan = [numOps]string{"op.get", "op.put", "op.del", "op.scan"}

// run keeps the window full until the phase turns to stop, then drains
// it. On an error the connection is lost with every request still in
// its window: those count as failed, and run returns the error.
func (c *wireConn) run(w *workload, z *zipf, win *window, phase *atomic.Int32) (err error) {
	depth := uint64(w.window)
	var head, next uint64 // oldest outstanding request, next to send
	defer func() {
		if err == nil {
			return
		}
		for j := head; j < next; j++ {
			if !c.ring[j%uint64(len(c.ring))].measured {
				c.attempted++
			}
			c.failed++
		}
	}()
	for next < depth {
		err = c.send(w, z, next, phaseWarm)
		next++
		if err != nil {
			return err
		}
	}
	for head < next {
		p := &c.ring[head%uint64(len(c.ring))]
		var recvStart time.Time
		if c.tr != nil {
			recvStart = time.Now()
		}
		var got uint64
		var flag bool
		switch p.op {
		case opGet:
			var v uint64
			v, flag, err = c.cl.RecvGet()
			got = asVal(v, flag)
		case opPut:
			flag, err = c.cl.RecvPut()
		case opDel:
			flag, err = c.cl.RecvDel()
		case opScan:
			c.scanBuf, err = c.cl.RecvScan(c.scanBuf[:0])
		}
		now := time.Now()
		if err != nil {
			return fmt.Errorf("conn %d: %s %d: %w", c.id, opNames[p.op], p.key, err)
		}
		ph := phase.Load()
		if ph == phaseMeasure {
			c.rec.record(win, p.op, now.Sub(p.sent), now)
			c.ops.Add(1)
		}
		if c.tr != nil {
			b := c.tr.base
			opID := uint64(c.id)<<48 | head
			root := c.tr.id()
			c.tr.add(opID, root, 0, wireSpan[p.op], int64(p.sent.Sub(b)), int64(now.Sub(b)))
			c.tr.add(opID, c.tr.id(), root, "client.send", p.sendSpan[0], p.sendSpan[1])
			c.tr.add(opID, c.tr.id(), root, "client.recv", int64(recvStart.Sub(b)), int64(now.Sub(b)))
		}
		c.check(w, p, got, flag, head, next, depth)
		head++
		if ph != phaseStop {
			err = c.send(w, z, next, ph)
			next++
			if err != nil {
				return err
			}
		}
	}
	return nil
}

// check judges one response. On an ordered path an owned Get must see
// exactly the writes sent before it, and a write's inserted/found flag
// must match the shadow. Through the proxy a Get may also see any write
// to the key that was unacknowledged when it was sent or sent before
// its response arrived: the requests (head-depth, next) of the ring.
// A scan is checked for its shape and for every value carrying its key.
func (c *wireConn) check(w *workload, p *pending, got uint64, flag bool, head, next, depth uint64) {
	if p.op == opScan {
		c.v.add(checkScan(p.key, w.scanLimit, c.scanBuf))
		return
	}
	if p.op != opGet {
		if c.ordered {
			c.v.add(checkWriteResult(p.op, p.key, p.expect, flag))
		}
		c.acked.set(p.key, p.val)
		return
	}
	if !c.sh.owns(p.key) {
		c.v.add(checkForeignGet(p.key, got))
		return
	}
	if c.ordered {
		c.v.add(checkOwnedGet(p.key, got, p.expect))
		return
	}
	c.allowed = append(c.allowed[:0], p.acked)
	first := uint64(0)
	if head > depth {
		first = head - depth + 1
	}
	for j := first; j < next; j++ {
		q := &c.ring[j%uint64(len(c.ring))]
		if (q.op == opPut || q.op == opDel) && q.key == p.key {
			c.allowed = append(c.allowed, q.val)
		}
	}
	c.v.add(checkOwnedGet(p.key, got, c.allowed...))
}

// wireEdge is the state at one edge of the measured window.
type wireEdge struct {
	at     time.Time
	ops    uint64
	self   time.Duration
	procs  []time.Duration // per deployment process
	host   hostTicks
	mem    runtime.MemStats
	scr    []scrape            // per process with a metrics port
	arenas []kvstore.SideStats // per server: Allocs, MagRefills, Slots
}

func runWire(w workload, o options) (*result, error) {
	n := o.workers
	z := newZipf(w.keys, w.theta)
	res := &result{metrics: map[string]float64{}}
	var v violations

	var d *deployment
	var shadows []*shadow
	var setups setupLog
	for i := 0; i < w.setups; i++ {
		shadows = make([]*shadow, n)
		for id := range shadows {
			shadows[id] = newShadow(id, n, w.keys)
		}
		setups.start()
		dep, err := setUp(w, o, shadows)
		if err != nil {
			return nil, fmt.Errorf("set-up %d: %w", i+1, err)
		}
		setups.end()
		if i < w.setups-1 {
			for _, err := range dep.tearDown() {
				v.add(fmt.Errorf("set-up %d: %w", i+1, err))
			}
			continue
		}
		d = dep
	}
	defer d.kill() // no-op once tearDown has run

	base := time.Now()
	win := newWindow(o.window)
	cs := make([]*wireConn, n)
	recs := make([]*recorder, n)
	for id := range cs {
		recs[id] = newRecorder(win)
		cs[id] = &wireConn{rec: recs[id],
			id: id, n: n, cl: d.conns[id], r: newRNG(o.seed, uint64(id)),
			sh: shadows[id], acked: newShadow(id, n, w.keys), ordered: w.wire == "direct",
			ring: make([]pending, 2*w.window),
		}
		copy(cs[id].acked.vals, shadows[id].vals)
		if o.trace {
			cs[id].tr = newTracer(base, id)
		}
	}
	var phase atomic.Int32
	errs := make([]error, n)
	aborted := make(chan struct{}) // closed when a connection fails
	var abortOnce sync.Once
	var wg sync.WaitGroup
	for _, c := range cs {
		wg.Add(1)
		go func(c *wireConn) {
			defer wg.Done()
			if err := c.run(&w, z, win, &phase); err != nil {
				errs[c.id] = err
				phase.Store(phaseStop)
				abortOnce.Do(func() { close(aborted) })
			}
		}(c)
	}

	procs := d.procs()
	edge := func() (wireEdge, error) {
		e := wireEdge{at: time.Now(), self: selfCPU(), host: readHost()}
		for _, c := range cs {
			e.ops += c.ops.Load()
		}
		for _, p := range procs {
			t, err := procCPU(p.cmd.Process.Pid)
			if err != nil {
				return e, fmt.Errorf("%s cpu: %w", p.name, err)
			}
			e.procs = append(e.procs, t)
		}
		if !o.trace {
			return e, nil
		}
		runtime.ReadMemStats(&e.mem)
		for _, p := range procs {
			s, err := scrapeProc(p.maddr)
			if err != nil {
				return e, fmt.Errorf("%s scrape: %w", p.name, err)
			}
			e.scr = append(e.scr, s)
		}
		for i, cl := range d.stats {
			st, err := cl.Stats(context.Background())
			if err != nil {
				return e, fmt.Errorf("%s STATS: %w", d.servers[i].name, err)
			}
			var a kvstore.SideStats
			for _, s := range st.Sides {
				a.Allocs += s.Allocs
				a.MagRefills += s.MagRefills
				a.Slots += s.Slots
			}
			e.arenas = append(e.arenas, a)
		}
		return e, nil
	}
	time.Sleep(warmup)
	win.start = time.Now()
	meter := startStealMeter(win)
	phase.CompareAndSwap(phaseWarm, phaseMeasure)
	e0, err0 := edge()
	select {
	case <-time.After(o.window):
	case <-aborted:
	}
	e1, err1 := edge()
	phase.Store(phaseStop)
	meter.finish()
	wg.Wait()
	for _, c := range cs {
		res.attempted += c.attempted
		res.failed += c.failed
		for _, msg := range c.v.list() {
			v.add(fmt.Errorf("conn %d: %s", c.id, msg))
		}
	}
	if res.failed > 0 {
		// A lost connection leaves its in-flight writes undecided, so
		// the read-back has no single right answer; the run reports
		// what failed, the checks of the operations that completed and
		// the leak verdicts, and no metrics.
		for _, err := range errs {
			if err != nil {
				res.errors = append(res.errors, err.Error())
			}
		}
		res.context = append(res.context, "read-back skipped: operations failed")
		for _, err := range d.tearDown() {
			v.add(err)
		}
		res.violations = v.list()
		return res, nil
	}
	for _, err := range []error{err0, err1} {
		if err != nil {
			return nil, err
		}
	}

	// Peak memory, before anything is torn down.
	rss, err := peakRSS(0)
	if err != nil {
		return nil, err
	}
	for _, p := range procs {
		r, err := peakRSS(p.cmd.Process.Pid)
		if err != nil {
			return nil, fmt.Errorf("%s rss: %w", p.name, err)
		}
		rss += r
	}
	var maxLive int64
	for i, cl := range d.stats {
		st, err := cl.Stats(context.Background())
		if err != nil {
			return nil, fmt.Errorf("%s STATS: %w", d.servers[i].name, err)
		}
		maxLive += st.MaxLive
	}

	ops := e1.ops - e0.ops
	lat := summarize(recs, meter)
	cpuTotal := float64(e1.self - e0.self)
	for i := range procs {
		cpuTotal += float64(e1.procs[i] - e0.procs[i])
	}
	cpu := perOp(cpuTotal, ops)
	wall := e1.at.Sub(e0.at)
	res.context = runContext(e0.host, e1.host, wall, ops, &setups, lat)
	if o.trace {
		if err := wireLayers(res, w, o, d, cs, e0, e1, ops, cpu, lat.calmGet.quantile(0.5)/1e3); err != nil {
			return nil, err
		}
	} else {
		m := res.metrics
		m["cpu_ns_per_op"] = cpu
		m["get_p50_us"] = lat.calmGet.quantile(0.5) / 1e3
		m["write_p50_us"] = lat.calmWrite.quantile(0.5) / 1e3
		m["setup_s"] = setups.median()
		m["peak_rss_mib"] = float64(rss) / (1 << 20)
		m["peak_arena_objects"] = float64(maxLive)
	}

	// Read back through the entry point, then from every kvserver
	// directly: through the proxy, one replica's copy of a key could
	// hide the other's loss or stale value.
	sources, names := []*kvstore.Client{d.conns[0]}, []string{"entry point"}
	if d.proxy != nil {
		sources = append(sources, d.stats...)
		for _, s := range d.servers {
			names = append(names, s.name)
		}
	}
	for i, cl := range sources {
		pairs, err := readback(kvstore.MaxScanLimit, func(from uint64, limit int) ([]uint64, error) {
			return cl.Scan(context.Background(), from, uint32(limit))
		})
		if err == nil {
			err = checkReadback(pairs, shadows)
		}
		if err != nil {
			v.add(fmt.Errorf("%s: %w", names[i], err))
		}
	}
	for _, err := range d.tearDown() {
		v.add(err)
	}
	res.violations = v.list()
	return res, nil
}

// wireLayers fills the per-layer metrics of a traced wire run from the
// window's edges. "Per op" is per client operation; the server's frame
// cost and exec time are per operation the servers executed.
func wireLayers(res *result, w workload, o options, d *deployment, cs []*wireConn,
	e0, e1 wireEdge, ops uint64, cpu, getP50 float64) error {
	m := res.metrics
	m["client.cpu_ns_per_op"] = perOp(float64(e1.self-e0.self), ops)
	var sendNs int64
	for _, c := range cs {
		sendNs += c.sendNs.Load()
	}
	m["client.send_ns_per_op"] = perOp(float64(sendNs), ops)

	// Servers are the first len(d.servers) processes, the proxy last.
	var srvCPU, backendOps, execN, execNs, mallocs, gcs float64
	for i := range d.servers {
		srvCPU += float64(e1.procs[i] - e0.procs[i])
		for _, op := range []string{"get", "put", "del", "scan"} {
			backendOps += e1.scr[i].metrics["kv/server/ops/"+op] - e0.scr[i].metrics["kv/server/ops/"+op]
			c1, ns1 := e1.scr[i].histTotal("kv/server/lat/", op+"_ns")
			c0, ns0 := e0.scr[i].histTotal("kv/server/lat/", op+"_ns")
			execN += c1 - c0
			execNs += ns1 - ns0
		}
		mallocs += e1.scr[i].mallocs - e0.scr[i].mallocs
		gcs += e1.scr[i].numGC - e0.scr[i].numGC
	}
	bops := uint64(backendOps)
	exec := 0.0
	if execN > 0 {
		exec = execNs / execN
	}
	m["server.cpu_ns_per_op"] = perOp(srvCPU, ops)
	m["server.exec_mean_ns"] = exec
	m["server.frame_cpu_ns_per_op"] = perOp(srvCPU, bops) - exec
	m["server.allocs_per_op"] = perOp(mallocs, bops)
	m["server.gc_per_mop"] = 1e6 * perOp(gcs, bops)

	if d.proxy != nil {
		pi := len(d.servers)
		p0, p1 := e0.scr[pi], e1.scr[pi]
		m["cluster.cpu_ns_per_op"] = perOp(float64(e1.procs[pi]-e0.procs[pi]), ops)
		m["cluster.allocs_per_op"] = perOp(p1.mallocs-p0.mallocs, ops)
		m["cluster.backend_ops_per_op"] = perOp(backendOps, ops)
		// RTT medians are over each backend's whole life; weight them by
		// the window's share of samples.
		var wsum, rsum float64
		for _, s := range d.servers {
			k := "cluster/backend/" + s.addr + "/rtt"
			c := p1.metrics[k+".count"] - p0.metrics[k+".count"]
			wsum += c
			rsum += c * p1.metrics[k+".p50_us"]
		}
		if wsum > 0 {
			m["cluster.backend_rtt_p50_us"] = rsum / wsum
			m["cluster.hop_us"] = getP50 - rsum/wsum
		}
		m["cluster.hedges_per_kop"] = 1e3 * perOp(p1.metrics["cluster/hedge/fired"]-p0.metrics["cluster/hedge/fired"], ops)
	}

	var allocs, refills, slots uint64
	for i := range d.servers {
		allocs += e1.arenas[i].Allocs - e0.arenas[i].Allocs
		refills += e1.arenas[i].MagRefills - e0.arenas[i].MagRefills
		slots += e1.arenas[i].Slots
	}
	m["arena.allocs_per_op"] = perOp(float64(allocs), ops)
	m["arena.mag_refills_per_kop"] = 1e3 * perOp(float64(refills), ops)
	m["arena.slots"] = float64(slots)
	reclaimLayer(m, e0.scr[:len(d.servers)], e1.scr[:len(d.servers)], ops)
	m["runtime.allocs_per_op"] = perOp(float64(e1.mem.Mallocs-e0.mem.Mallocs), ops)
	m["runtime.gc_per_mop"] = 1e6 * perOp(float64(e1.mem.NumGC-e0.mem.NumGC), ops)
	m["trace.cpu_ns_per_op"] = cpu

	path := fmt.Sprintf("%s/traces/%s-seed%d.jsonl", o.out, w.name, o.seed)
	tr := make([]*tracer, len(cs))
	for i, c := range cs {
		tr[i] = c.tr
	}
	if err := writeTraces(path, tr); err != nil {
		return err
	}
	res.context = append(res.context, "spans: "+path)
	return nil
}
