package main

import (
	"fmt"

	"repro/internal/kvstore"
)

// The output checker. It trusts nothing the program reports about
// itself except the leak verdict: each worker writes only its own
// residue class of keys and keeps a shadow of them, so every read of an
// owned key has one right answer (or, through the proxy, one of a few);
// every value names its key; scans are checked for their shape; and the
// final store must equal the union of the shadows.

// shadow is one worker's model of the keys it owns: those with
// (key-1) % n == id. A zero value means absent (no real value is 0,
// since every value carries its key ≥ 1).
type shadow struct {
	id, n int
	vals  []uint64
}

func newShadow(id, n int, keys uint64) *shadow {
	return &shadow{id: id, n: n, vals: make([]uint64, keys/uint64(n)+1)}
}

func (s *shadow) owns(key uint64) bool    { return int((key-1)%uint64(s.n)) == s.id }
func (s *shadow) get(key uint64) uint64   { return s.vals[(key-1)/uint64(s.n)] }
func (s *shadow) set(key, v uint64)       { s.vals[(key-1)/uint64(s.n)] = v }
func (s *shadow) key(i int) uint64        { return uint64(i*s.n+s.id) + 1 }
func (s *shadow) present(key uint64) bool { return s.get(key) != 0 }

// asVal folds a lookup result into shadow form: 0 for absent.
func asVal(v uint64, found bool) uint64 {
	if !found {
		return 0
	}
	return v
}

func describe(v uint64) string {
	if v == 0 {
		return "absent"
	}
	return fmt.Sprintf("key %d seq %d", valKey(v), uint32(v))
}

// checkOwnedGet: a Get of an owned key must return one of the allowed
// shadow values — exactly one when the path executes a connection's
// requests in order, more when a write to the key was still in flight.
func checkOwnedGet(key, got uint64, allowed ...uint64) error {
	for _, a := range allowed {
		if got == a {
			return nil
		}
	}
	want := make([]string, len(allowed))
	for i, a := range allowed {
		want[i] = describe(a)
	}
	return fmt.Errorf("get %d: got %s, want one of %v", key, describe(got), want)
}

// checkForeignGet: a Get of a key another worker owns can return any of
// that worker's writes, but the value must belong to the key.
func checkForeignGet(key, got uint64) error {
	if got != 0 && valKey(got) != key {
		return fmt.Errorf("get %d: value %#x belongs to key %d", key, got, valKey(got))
	}
	return nil
}

// checkWriteResult: a Put reports whether it inserted and a Del whether
// it found the key; for an owned key the shadow before the write says
// which.
func checkWriteResult(op int, key, before uint64, flag bool) error {
	if want := before == 0; op == opPut && flag != want {
		return fmt.Errorf("put %d: inserted=%v but the key was %s", key, flag, describe(before))
	}
	if want := before != 0; op == opDel && flag != want {
		return fmt.Errorf("del %d: found=%v but the key was %s", key, flag, describe(before))
	}
	return nil
}

// checkScan: interleaved pairs, at most limit of them, keys strictly
// ascending from at least from, each value carrying its key.
func checkScan(from uint64, limit int, pairs []uint64) error {
	if len(pairs)%2 != 0 {
		return fmt.Errorf("scan from %d: odd result length %d", from, len(pairs))
	}
	if n := len(pairs) / 2; n > limit {
		return fmt.Errorf("scan from %d: %d pairs, limit %d", from, n, limit)
	}
	for i := 0; i < len(pairs); i += 2 {
		k, v := pairs[i], pairs[i+1]
		if i == 0 && k < from {
			return fmt.Errorf("scan from %d: first key %d", from, k)
		}
		if i > 0 && k <= pairs[i-2] {
			return fmt.Errorf("scan from %d: key %d after %d", from, k, pairs[i-2])
		}
		if valKey(v) != k {
			return fmt.Errorf("scan from %d: key %d carries value %#x", from, k, v)
		}
	}
	return nil
}

// readback walks the whole store with scans of the given page size.
// scan is the path under test; each page is shape-checked.
func readback(page int, scan func(from uint64, limit int) ([]uint64, error)) ([]uint64, error) {
	var all []uint64
	from := kvstore.MinKey
	for {
		pairs, err := scan(from, page)
		if err != nil {
			return all, fmt.Errorf("read-back scan from %d: %w", from, err)
		}
		if err := checkScan(from, page, pairs); err != nil {
			return all, fmt.Errorf("read-back: %w", err)
		}
		if len(pairs) == 0 {
			return all, nil
		}
		all = append(all, pairs...)
		from = pairs[len(pairs)-2] + 1
	}
}

// checkReadback: the store's full contents (ascending pairs) must equal
// the union of the shadows — every present key with its last written
// value, and nothing else.
func checkReadback(pairs []uint64, shadows []*shadow) error {
	want := 0
	for _, s := range shadows {
		for _, v := range s.vals {
			if v != 0 {
				want++
			}
		}
	}
	n := len(shadows)
	for i := 0; i < len(pairs); i += 2 {
		k, v := pairs[i], pairs[i+1]
		if k < 1 || int((k-1)/uint64(n)) >= len(shadows[0].vals) {
			return fmt.Errorf("read-back: key %d outside the keyspace", k)
		}
		if s := shadows[(k-1)%uint64(n)]; s.get(k) != v {
			return fmt.Errorf("read-back: key %d is %s, shadow says %s", k, describe(v), describe(s.get(k)))
		}
	}
	if got := len(pairs) / 2; got != want {
		return fmt.Errorf("read-back: %d keys present, shadows hold %d", got, want)
	}
	return nil
}

// checkLeak: the store's own drain verdict, the one self-report the
// benchmark relies on (it compares arena Live with the post-build
// baseline, which no client can observe).
func checkLeak(rep kvstore.DrainReport) error {
	if !rep.LeakOK {
		return fmt.Errorf("leak verdict failed: scheme %s live %d baseline %d retired-not-freed %d",
			rep.Scheme, rep.Live, rep.Baseline, rep.RetiredNotFreed)
	}
	return nil
}

// checkOwnedInScan: keys the worker owns cannot change while its own
// scan runs, so every owned key the shadow holds between from and the
// scan's reach must appear with its shadow value, and no other owned
// key may. The reach is the last returned key when the scan filled its
// limit, else the end of the keyspace.
func checkOwnedInScan(sh *shadow, keys, from uint64, limit int, pairs []uint64) error {
	hi := keys
	if len(pairs) == 2*limit {
		hi = pairs[len(pairs)-2]
	}
	k := from
	if k < 1 {
		k = 1
	}
	for !sh.owns(k) {
		k++
	}
	j := 0
	for ; k <= hi; k += uint64(sh.n) {
		for j < len(pairs) && pairs[j] < k {
			j += 2
		}
		var got uint64
		if j < len(pairs) && pairs[j] == k {
			got = pairs[j+1]
		}
		if want := sh.get(k); got != want {
			return fmt.Errorf("scan from %d: owned key %d is %s, shadow says %s", from, k, describe(got), describe(want))
		}
	}
	return nil
}
