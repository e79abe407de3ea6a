package main

import (
	"bufio"
	"fmt"
	"io"
	"math"
	"net/http"
	"strconv"
	"strings"
	"time"

	"sdem/internal/telemetry/series"
)

// scrapeSeries polls an OpenMetrics endpoint n times, poll apart, and
// assembles the n-1 inter-scrape deltas into an ordinal-clock series:
// window i covers scrape i → i+1. Counter families (every name_total
// sample, which is how the exporter renders both integer counters and
// monotone float sums) become float deltas; gauges keep their last
// scraped value; histogram families contribute their _sum delta as a
// float and their _count delta as a counter, so ratio objectives like
// mean latency work without bucket reconstruction.
//
// Keys keep the exposition spelling (underscored names, quoted label
// values) — SLO specs written for scrape mode must use the exposition
// names, e.g. "sdem_sim_misses_total" rather than "sdem.sim.misses".
func scrapeSeries(url string, n int, poll time.Duration) (*series.Series, error) {
	ser := &series.Series{Clock: series.ClockOrdinal, Interval: 1, Alpha: series.DefaultAlpha}
	var prev scrape
	for i := 0; i < n; i++ {
		if i > 0 {
			time.Sleep(poll)
		}
		cur, err := scrapeOnce(url)
		if err != nil {
			return nil, fmt.Errorf("scrape %d: %w", i, err)
		}
		if i > 0 {
			ser.Windows = append(ser.Windows, deltaWindow(int64(i-1), prev, cur))
		}
		prev = cur
	}
	return ser, nil
}

// scrape is one parsed exposition: cumulative counter-ish samples and
// last-value gauges, keyed by "name{labels}".
type scrape struct {
	counters map[string]float64
	gauges   map[string]float64
	hcounts  map[string]float64
}

func scrapeOnce(url string) (scrape, error) {
	resp, err := http.Get(url)
	if err != nil {
		return scrape{}, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return scrape{}, fmt.Errorf("GET %s: %s", url, resp.Status)
	}
	return parseExposition(resp.Body)
}

// parseExposition reads OpenMetrics text, using the # TYPE comments the
// exporter always emits to classify each family. Unknown or malformed
// lines are skipped rather than fatal: the watchtower reads expositions
// it does not control.
func parseExposition(r io.Reader) (scrape, error) {
	s := scrape{
		counters: map[string]float64{},
		gauges:   map[string]float64{},
		hcounts:  map[string]float64{},
	}
	types := map[string]string{}
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 1<<20)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" {
			continue
		}
		if strings.HasPrefix(line, "#") {
			fields := strings.Fields(line)
			if len(fields) == 4 && fields[1] == "TYPE" {
				types[fields[2]] = fields[3]
			}
			continue
		}
		// Strip a trailing exemplar: `value # {labels} exemplar-value`.
		if i := strings.Index(line, " # "); i >= 0 {
			line = line[:i]
		}
		key, value, ok := splitSample(line)
		if !ok {
			continue
		}
		name := bare(key)
		switch {
		case strings.HasSuffix(name, "_total") && types[strings.TrimSuffix(name, "_total")] == "counter":
			s.counters[key] += value
		case types[name] == "gauge":
			s.gauges[key] = value
		case strings.HasSuffix(name, "_sum") && types[strings.TrimSuffix(name, "_sum")] == "histogram":
			s.counters[key] += value
		case strings.HasSuffix(name, "_count") && types[strings.TrimSuffix(name, "_count")] == "histogram":
			s.hcounts[key] += value
		}
	}
	return s, sc.Err()
}

// splitSample splits one exposition line into its series key and value.
// The value is the last space-separated token; the key is everything
// before it (label values may not contain raw spaces in this module's
// canonical label form).
func splitSample(line string) (string, float64, bool) {
	i := strings.LastIndexByte(line, ' ')
	if i <= 0 {
		return "", 0, false
	}
	v, err := strconv.ParseFloat(line[i+1:], 64)
	if err != nil || math.IsNaN(v) {
		return "", 0, false
	}
	return strings.TrimSpace(line[:i]), v, true
}

// deltaWindow builds one series window from consecutive scrapes. A
// counter that went backwards (process restart) contributes its new
// cumulative value, the standard rate-reset convention.
func deltaWindow(idx int64, prev, cur scrape) series.Window {
	w := series.Window{Index: idx}
	for _, k := range series.SortedKeys(cur.counters) {
		d := cur.counters[k] - prev.counters[k]
		if d < 0 {
			d = cur.counters[k]
		}
		if d > 0 {
			if w.Floats == nil {
				w.Floats = map[string]float64{}
			}
			w.Floats[k] = d
		}
	}
	for _, k := range series.SortedKeys(cur.hcounts) {
		d := cur.hcounts[k] - prev.hcounts[k]
		if d < 0 {
			d = cur.hcounts[k]
		}
		if d > 0 {
			if w.Counters == nil {
				w.Counters = map[string]int64{}
			}
			w.Counters[k] = int64(d)
		}
	}
	for _, k := range series.SortedKeys(cur.gauges) {
		if w.Gauges == nil {
			w.Gauges = map[string]float64{}
		}
		w.Gauges[k] = cur.gauges[k]
	}
	return w
}
