package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"strings"
	"time"
)

var httpc = &http.Client{Timeout: 10 * time.Second}

func httpGet(url string) ([]byte, error) {
	resp, err := httpc.Get(url)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err == nil && resp.StatusCode != http.StatusOK {
		err = fmt.Errorf("GET %s: %s", url, resp.Status)
	}
	return b, err
}

// scrape is one process's counters at one edge of the window.
type scrape struct {
	metrics map[string]float64 // /metrics text: "name value" lines
	mallocs float64            // runtime MemStats.Mallocs
	numGC   float64
}

// scrapeProc reads a kvserver's or kvproxy's /metrics and the MemStats
// footer of /debug/pprof/heap?debug=1.
func scrapeProc(maddr string) (scrape, error) {
	s := scrape{metrics: map[string]float64{}}
	b, err := httpGet("http://" + maddr + "/metrics")
	if err != nil {
		return s, err
	}
	sc := bufio.NewScanner(bytes.NewReader(b))
	for sc.Scan() {
		name, val, ok := strings.Cut(sc.Text(), " ")
		if !ok {
			continue
		}
		if v, err := strconv.ParseFloat(val, 64); err == nil {
			s.metrics[name] = v
		}
	}
	b, err = httpGet("http://" + maddr + "/debug/pprof/heap?debug=1")
	if err != nil {
		return s, err
	}
	var seen int
	sc = bufio.NewScanner(bytes.NewReader(b))
	sc.Buffer(make([]byte, 64<<10), 1<<20)
	for sc.Scan() {
		line := sc.Text()
		for _, f := range []struct {
			prefix string
			dst    *float64
		}{{"# Mallocs = ", &s.mallocs}, {"# NumGC = ", &s.numGC}} {
			if rest, ok := strings.CutPrefix(line, f.prefix); ok {
				v, err := strconv.ParseFloat(rest, 64)
				if err != nil {
					return s, fmt.Errorf("heap profile: %q: %w", line, err)
				}
				*f.dst = v
				seen++
			}
		}
	}
	if seen != 2 {
		return s, errors.New("heap profile: no MemStats footer")
	}
	return s, nil
}

// sum adds every metric whose name has the given prefix and suffix,
// e.g. ("reclaim/", "/scans") over all shards and indexes.
func (s scrape) sum(prefix, suffix string) float64 {
	var t float64
	for k, v := range s.metrics {
		if strings.HasPrefix(k, prefix) && strings.HasSuffix(k, suffix) {
			t += v
		}
	}
	return t
}

// histTotal is count × mean (ns) summed over every histogram with the
// given prefix and suffix: a cumulative total whose difference across
// the window gives the time spent in the window's samples.
func (s scrape) histTotal(prefix, suffix string) (count, ns float64) {
	for k, c := range s.metrics {
		base, ok := strings.CutSuffix(k, suffix+".count")
		if !ok || !strings.HasPrefix(k, prefix) {
			continue
		}
		count += c
		ns += c * s.metrics[base+suffix+".mean_us"] * 1e3
	}
	return count, ns
}

// jsonTail decodes the JSON object a program printed at the end of its
// standard output.
func jsonTail(out []byte, v any) error {
	i := bytes.IndexByte(out, '{')
	if i < 0 {
		return errors.New("no JSON in output")
	}
	return json.Unmarshal(out[i:], v)
}
