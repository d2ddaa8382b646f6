package main

import (
	"fmt"
	"math"
)

// Op kinds a workload issues.
const (
	opGet = iota
	opPut
	opDel
	opScan
	numOps
)

var opNames = [numOps]string{"get", "put", "del", "scan"}

// workload fixes everything a run generates except the seed.
type workload struct {
	name      string
	scheme    string      // reclamation scheme of the store or of every kvserver
	wire      string      // "" in-process, "direct" or "proxy"
	keys      uint64      // keyspace [1, keys]; even
	theta     float64     // zipfian exponent of the key draw
	mix       [numOps]int // per mille
	scanLimit int
	window    int // requests kept in flight per connection (wire only)
	workers   int // worker goroutines (in-process) or connections (wire)
	setups    int // set-ups per run; setup_s is their median
}

// workloads are the benchmark's fixed workloads. BENCHMARK.json and
// README.md give the reason for each: store-churn loads the in-process
// store, direct-read the server and wire path under hp, proxy-mixed the
// cluster layer. The mixes come from the repo's two sources of traffic:
// the paper's set mixes (bench.MixWrite 50i/50r, bench.MixRead
// 5i/5r/90c) and kvload's default (get=50,put=45,del=4,scan=1, scans of
// 16).
var workloads = []workload{
	{
		// kvload's read and scan shares, its 49% of writes split
		// evenly between inserts and removes as in 50i/50r.
		name:   "store-churn",
		scheme: "orcgc", keys: 1 << 17, theta: 0.8,
		mix:       [numOps]int{opGet: 500, opPut: 245, opDel: 245, opScan: 10},
		scanLimit: 16, workers: 2, setups: 9,
	},
	{
		// 5i/5r/90c.
		name:   "direct-read",
		scheme: "hp", wire: "direct", keys: 1 << 12, theta: 0.99,
		mix:    [numOps]int{opGet: 900, opPut: 50, opDel: 50},
		window: 16, workers: 2, setups: 31,
	},
	{
		// kvload's default.
		name:   "proxy-mixed",
		scheme: "orcgc", wire: "proxy", keys: 1 << 14, theta: 0.99,
		mix:       [numOps]int{opGet: 500, opPut: 450, opDel: 40, opScan: 10},
		scanLimit: 16, window: 16, workers: 2, setups: 15,
	},
}

func findWorkload(name string) (workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	return workload{}, fmt.Errorf("unknown workload %q", name)
}

// preloaded reports whether set-up inserts key: half the keyspace, both
// residue classes alike.
func preloaded(key uint64) bool { return key%4 < 2 }

// Values carry their key in the high 32 bits and the writer's sequence
// number in the low 32, so any read can be checked for the key it
// belongs to and an owned read for the exact write it returns. Set-up
// writes sequence 0; a worker's sequence starts at 1.
func encodeVal(key uint64, seq uint32) uint64 { return key<<32 | uint64(seq) }
func valKey(v uint64) uint64                  { return v >> 32 }

// rng is splitmix64: fast, and the same seed gives the same stream on
// every platform.
type rng struct{ s uint64 }

func newRNG(seed int64, stream uint64) *rng {
	r := &rng{s: uint64(seed)*0x9e3779b97f4a7c15 ^ (stream+1)*0xbf58476d1ce4e5b9}
	r.next()
	return r
}

func (r *rng) next() uint64 {
	r.s += 0x9e3779b97f4a7c15
	z := r.s
	z = (z ^ z>>30) * 0xbf58476d1ce4e5b9
	z = (z ^ z>>27) * 0x94d049bb133111eb
	return z ^ z>>31
}

func (r *rng) float() float64 { return float64(r.next()>>11) / (1 << 53) }

// intn draws from [0, n).
func (r *rng) intn(n int) int { return int(r.next() % uint64(n)) }

// zipf is the YCSB Zipfian generator (Gray et al.), which supports the
// usual theta < 1. Ranks are scattered over the keyspace by a Fibonacci
// hash so the hot keys land on every store shard. The constants are
// computed once per workload and shared; each worker draws with its own
// rng.
type zipf struct {
	n                   uint64
	theta, alpha, zetan float64
	eta, half           float64
}

func newZipf(n uint64, theta float64) *zipf {
	zeta := func(n uint64) float64 {
		s := 0.0
		for i := uint64(1); i <= n; i++ {
			s += 1 / math.Pow(float64(i), theta)
		}
		return s
	}
	zn := zeta(n)
	return &zipf{
		n: n, theta: theta, alpha: 1 / (1 - theta), zetan: zn,
		eta:  (1 - math.Pow(2/float64(n), 1-theta)) / (1 - zeta(2)/zn),
		half: 1 + math.Pow(0.5, theta),
	}
}

// key draws a key in [1, n].
func (z *zipf) key(r *rng) uint64 {
	u := r.float()
	uz := u * z.zetan
	var rank uint64
	switch {
	case uz < 1:
		rank = 1
	case uz < z.half:
		rank = 2
	default:
		rank = 1 + uint64(float64(z.n)*math.Pow(z.eta*u-z.eta+1, z.alpha))
	}
	return 1 + (rank*0x9e3779b97f4a7c15)%z.n
}

// pick draws an op kind by the workload's mix.
func (w *workload) pick(r *rng) int {
	x := r.intn(1000)
	for op := 0; op < numOps; op++ {
		if x < w.mix[op] {
			return op
		}
		x -= w.mix[op]
	}
	return opGet
}

// owned maps key onto the residue class of worker id (of n), keeping it
// in [1, keys]: writes go only to a worker's own keys.
func owned(key uint64, id, n int) uint64 {
	k := key - 1
	k -= k % uint64(n)
	return k + uint64(id) + 1
}
