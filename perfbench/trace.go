package main

import (
	"bufio"
	"fmt"
	"os"
	"path/filepath"
	"time"
)

// span is one harness call into a layer. Spans of one request share op;
// parent is the id of the enclosing span (0 for a request's root).
type span struct {
	op, id, parent uint64
	name           string
	start, end     int64 // ns since the run's time base
}

// tracer keeps one worker's most recent spans in a fixed ring, so a
// traced run's memory does not grow with its length. Each worker owns
// its tracer; nothing is shared until the run ends.
type tracer struct {
	base   time.Time
	worker uint64
	ring   []span
	n      uint64 // spans recorded
	ids    uint64
}

const traceRing = 1 << 14

func newTracer(base time.Time, worker int) *tracer {
	return &tracer{base: base, worker: uint64(worker), ring: make([]span, traceRing)}
}

// id returns a span id unique across workers.
func (t *tracer) id() uint64 {
	t.ids++
	return t.worker<<48 | t.ids
}

func (t *tracer) add(op, id, parent uint64, name string, start, end int64) {
	t.ring[t.n%traceRing] = span{op: op, id: id, parent: parent, name: name, start: start, end: end}
	t.n++
}

// writeTraces dumps every worker's ring as JSON lines into path.
func writeTraces(path string, ts []*tracer) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	for _, t := range ts {
		first := uint64(0)
		if t.n > traceRing {
			first = t.n - traceRing
		}
		for i := first; i < t.n; i++ {
			s := &t.ring[i%traceRing]
			fmt.Fprintf(w, `{"op":%d,"id":%d,"parent":%d,"name":%q,"start_ns":%d,"end_ns":%d}`+"\n",
				s.op, s.id, s.parent, s.name, s.start, s.end)
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
