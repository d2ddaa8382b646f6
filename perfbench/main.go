// Command perfbench is the repository's end-to-end benchmark. It runs
// one workload as a closed loop for a fixed window, checks every result
// against its own shadow model, and prints the end-to-end metrics (or,
// with -trace 1, the per-layer metrics) as one JSON object on the last
// line of standard output:
//
//	perfbench -bin .bench_build/bin -workload direct-read -seed 1 -seconds 15 -trace 0
//
// perfbench/run.sh builds the harness and the program's binaries from
// the checkout and passes -bin; README.md describes the workloads and
// what each metric means.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"strings"
	"time"

	"repro/internal/bench"
)

// metric is one reported figure; the names and units match
// BENCHMARK.json.
type metric struct {
	name, unit string
}

var endToEnd = []metric{
	{"cpu_ns_per_op", "ns"},
	{"get_p50_us", "us"},
	{"write_p50_us", "us"},
	{"setup_s", "s"},
	{"peak_rss_mib", "MiB"},
	{"peak_arena_objects", "objects"},
}

var perLayer = []metric{
	{"client.cpu_ns_per_op", "ns"},
	{"client.send_ns_per_op", "ns"},
	{"server.cpu_ns_per_op", "ns"},
	{"server.frame_cpu_ns_per_op", "ns"},
	{"server.exec_mean_ns", "ns"},
	{"server.allocs_per_op", "allocs"},
	{"server.gc_per_mop", "count"},
	{"cluster.cpu_ns_per_op", "ns"},
	{"cluster.allocs_per_op", "allocs"},
	{"cluster.backend_ops_per_op", "ratio"},
	{"cluster.backend_rtt_p50_us", "us"},
	{"cluster.hop_us", "us"},
	{"cluster.hedges_per_kop", "count"},
	{"store.scan_p50_us", "us"},
	{"arena.allocs_per_op", "allocs"},
	{"arena.mag_refills_per_kop", "count"},
	{"arena.slots", "slots"},
	{"reclaim.scans_per_kop", "count"},
	{"reclaim.scan_ns_per_op", "ns"},
	{"reclaim.elisions_per_op", "count"},
	{"reclaim.pending_max", "objects"},
	{"runtime.allocs_per_op", "allocs"},
	{"runtime.gc_per_mop", "count"},
	{"trace.cpu_ns_per_op", "ns"},
}

// options are the run's settings.
type options struct {
	seed    int64
	window  time.Duration
	trace   bool
	scheme  string // overrides the workload's scheme when set
	bin     string // directory holding kvserver and kvproxy
	out     string // directory for trace files
	workers int
}

// warmup runs the load before the window opens, so caches, the arena's
// magazines and the proxy's RTT estimates settle.
const warmup = time.Second

// result is what one run measured and checked. attempted counts the
// operations issued inside the window, failed those of them that
// returned an error (errors holds the first few).
type result struct {
	attempted, failed uint64
	errors            []string
	violations        []string
	metrics           map[string]float64 // e2e, or per-layer when traced
	context           []string           // printed beside, never bounded
}

func main() {
	name := flag.String("workload", "", "workload: store-churn, direct-read or proxy-mixed")
	seed := flag.Int64("seed", 1, "seed of every generated input")
	seconds := flag.Int("seconds", 15, "length of the measured window")
	trace := flag.Int("trace", 0, "1 runs with tracing and scrapes, printing the per-layer metrics")
	scheme := flag.String("scheme", "", "override the workload's reclamation scheme (e.g. none for reference figures)")
	bin := flag.String("bin", "", "directory with the kvserver and kvproxy binaries (wire workloads)")
	out := flag.String("out", ".bench_build", "directory for trace dumps")
	flag.Parse()

	w, err := findWorkload(*name)
	if err == nil && (*seconds < 1 || (*trace != 0 && *trace != 1)) {
		err = fmt.Errorf("bad -seconds %d or -trace %d", *seconds, *trace)
	}
	if err == nil && w.wire != "" {
		for _, b := range []string{"kvserver", "kvproxy"} {
			if _, serr := os.Stat(filepath.Join(*bin, b)); serr != nil {
				err = fmt.Errorf("-bin: %w", serr)
			}
		}
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(2)
	}
	o := options{
		seed: *seed, window: time.Duration(*seconds) * time.Second,
		trace: *trace == 1, scheme: *scheme, bin: *bin, out: *out,
		workers: min(w.workers, runtime.NumCPU()),
	}
	if o.scheme != "" {
		w.scheme = o.scheme
	}

	// A run that hangs (a stalled server, a lost response) must still end
	// within a bounded time, with its processes stopped.
	time.AfterFunc(warmup+o.window+120*time.Second, func() {
		fmt.Fprintf(os.Stderr, "perfbench: %s: run did not finish in time\n", w.name)
		killAll()
		os.Exit(1)
	})
	var res *result
	if w.wire == "" {
		res, err = runStore(w, o)
	} else {
		res, err = runWire(w, o)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", w.name, err)
		os.Exit(1)
	}
	os.Exit(report(w, o, res))
}

// report prints the run's context and metrics, then the result object
// as the last line; it returns the exit code.
func report(w workload, o options, res *result) int {
	fmt.Printf("perfbench %s seed=%d window=%v trace=%v scheme=%s rev=%s nproc=%d gomaxprocs=%d workers=%d\n",
		w.name, o.seed, o.window, o.trace, w.scheme, buildRev(), runtime.NumCPU(), runtime.GOMAXPROCS(0), o.workers)
	for _, c := range res.context {
		fmt.Println("  context:", c)
	}
	list := endToEnd
	if o.trace {
		list = perLayer
	}
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	ms := map[string]value{}
	for _, m := range list {
		v := res.metrics[m.name]
		ms[m.name] = value{v, m.unit}
		fmt.Printf("  %-28s %14.3f %s\n", m.name, v, m.unit)
	}
	for _, e := range res.errors {
		fmt.Fprintln(os.Stderr, "perfbench: OPERATION FAILED:", e)
	}
	for _, v := range res.violations {
		fmt.Fprintln(os.Stderr, "perfbench: CHECK FAILED:", v)
	}
	line, _ := json.Marshal(struct {
		Correct   bool             `json:"correct"`
		Attempted uint64           `json:"attempted"`
		Failed    uint64           `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{len(res.violations) == 0, res.attempted, res.failed, ms})
	fmt.Println(string(line))
	if len(res.violations) > 0 || res.failed > 0 {
		return 1
	}
	return 0
}

// buildRev is the VCS revision stamped into the harness binary, when it
// was built inside a git work tree.
func buildRev() string {
	bi, ok := debug.ReadBuildInfo()
	if !ok {
		return "unknown"
	}
	rev, dirty := "unknown", ""
	for _, s := range bi.Settings {
		switch s.Key {
		case "vcs.revision":
			rev = s.Value
			if len(rev) > 12 {
				rev = rev[:12]
			}
		case "vcs.modified":
			if s.Value == "true" {
				dirty = "+dirty"
			}
		}
	}
	return rev + dirty
}

func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n == 0 {
		return 0
	}
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

func fmtList(xs []float64, format string) string {
	parts := make([]string, len(xs))
	for i, x := range xs {
		parts[i] = fmt.Sprintf(format, x)
	}
	return "[" + strings.Join(parts, " ") + "]"
}

// perOp divides a window delta by the window's operations.
func perOp(delta float64, ops uint64) float64 {
	if ops == 0 {
		return 0
	}
	return delta / float64(ops)
}

// violations collects a worker's check failures, keeping the first few
// messages and counting the rest.
type violations struct {
	n    int
	msgs []string
}

func (v *violations) add(err error) {
	if err == nil {
		return
	}
	v.n++
	if len(v.msgs) < 5 {
		v.msgs = append(v.msgs, err.Error())
	}
}

func (v *violations) list() []string {
	out := append([]string(nil), v.msgs...)
	if v.n > len(v.msgs) {
		out = append(out, fmt.Sprintf("... and %d more", v.n-len(v.msgs)))
	}
	return out
}

// runContext is the run's context line: figures that track the host as
// much as the program, printed beside the metrics and never bounded.
func runContext(h0, h1 hostTicks, wall time.Duration, ops uint64, setups *setupLog, lat latSummary) []string {
	var all, write bench.Hist
	for op := range lat.ops {
		all.Merge(&lat.ops[op])
	}
	write.Merge(&lat.ops[opPut])
	write.Merge(&lat.ops[opDel])
	return []string{
		fmt.Sprintf("steal=%.1f%% wall_ops_per_s=%.0f p99_us=%.2f window_s=%.3f ops=%d",
			100*stealShare(h0, h1), float64(ops)/wall.Seconds(), float64(all.Quantile(0.99))/1e3,
			wall.Seconds(), ops),
		fmt.Sprintf("set-ups %s, steal in them %s, setup_s over the %d calmest",
			fmtList(setups.secs, "%.3f"), fmtList(setups.steal, "%.2f"), len(calmest(setups.steal))),
		fmt.Sprintf("whole-window get_p50_us=%.3f write_p50_us=%.3f; calm slots=%d of %v, steal in them %.1f%%",
			float64(lat.ops[opGet].Quantile(0.5))/1e3, float64(write.Quantile(0.5))/1e3, lat.calmSlots, slotLen, 100*lat.calmSteal),
	}
}
