// Command sdemwatch is the campaign watchtower: it consumes windowed
// telemetry — a JSONL series dump written by sdemsoak -series-out, or
// the live /debug/series endpoint of sdemd or of sdemsoak -listen — and
// renders a deterministic campaign report: the per-window table, merged
// sketch quantiles, and the SLO verdict with its breach timeline. Every
// input is a series.Collector dump, so the built-in profiles' keys
// always name what the producers record.
//
// Usage:
//
//	sdemwatch -series soak.series.jsonl -profile soak
//	sdemwatch -series - -slo specs.json -verdict-out verdict.json < dump.jsonl
//	sdemwatch -url http://127.0.0.1:8080/debug/series -profile serve
//	sdemwatch -url http://127.0.0.1:9090/debug/series -profile soak
//
// Exactly one of -series and -url may be set. The report on stdout is a
// pure function of the input series and the spec set, so watching the
// same dump twice yields byte-identical reports.
//
// Exit status: 0 when every objective passes, 3 when the SLO verdict
// fails (the distinguishable "SLO breach" outcome CI gates on), 1 on
// operational errors.
package main

import (
	"flag"
	"fmt"
	"io"
	"net/http"
	"os"

	"sdem/internal/telemetry/series"
	"sdem/internal/telemetry/slo"
)

// exitBreach is the distinguishable exit status for a failed SLO
// verdict, separate from operational failures (1).
const exitBreach = 3

type options struct {
	seriesPath string
	url        string

	sloPath    string
	profile    string
	coalesce   int
	verdictOut string

	// Profile thresholds; zero disables the matching optional objective.
	maxMissRate float64
	maxP99      float64
	maxDrift    float64
	maxShedRate float64
	maxP99ms    float64
}

func main() {
	var o options
	flag.StringVar(&o.seriesPath, "series", "", "read a JSONL series dump from this file (- = stdin)")
	flag.StringVar(&o.url, "url", "", "fetch a JSONL series dump from this URL (sdemd or sdemsoak -listen /debug/series)")
	flag.StringVar(&o.sloPath, "slo", "", "JSON SLO spec file (overrides -profile)")
	flag.StringVar(&o.profile, "profile", "", "built-in spec set: soak | serve (empty = report only, no verdict)")
	flag.IntVar(&o.coalesce, "coalesce", 0, "merge every k consecutive windows before reporting (0/1 = off)")
	flag.StringVar(&o.verdictOut, "verdict-out", "", "also write the verdict JSON to this file")
	flag.Float64Var(&o.maxMissRate, "max-miss-rate", 0.05, "soak profile: max per-window miss rate (0 = off)")
	flag.Float64Var(&o.maxP99, "max-p99", 2, "soak profile: max p99 response seconds (0 = off)")
	flag.Float64Var(&o.maxDrift, "max-drift", 0.5, "soak profile: max relative energy-per-job drift (0 = off)")
	flag.Float64Var(&o.maxShedRate, "max-shed-rate", 0.1, "serve profile: max per-window shed rate (0 = off)")
	flag.Float64Var(&o.maxP99ms, "max-p99-ms", 250, "serve profile: max p99 request latency in ms (0 = off)")
	flag.Parse()

	code, err := run(os.Stdout, o)
	if err != nil {
		fmt.Fprintln(os.Stderr, "sdemwatch:", err)
		if code == 0 {
			code = 1
		}
	}
	os.Exit(code)
}

// run loads the series, evaluates the specs, renders the report, and
// returns the process exit status.
func run(w io.Writer, o options) (int, error) {
	ser, err := loadSeries(o)
	if err != nil {
		return 1, err
	}
	if o.coalesce > 1 {
		ser, err = ser.Coalesce(o.coalesce)
		if err != nil {
			return 1, err
		}
	}
	specs, err := loadSpecs(o)
	if err != nil {
		return 1, err
	}
	var verdict *slo.Verdict
	if len(specs) > 0 {
		verdict, err = slo.Evaluate(ser, specs)
		if err != nil {
			return 1, err
		}
	}
	if err := render(w, ser, verdict); err != nil {
		return 1, err
	}
	if verdict != nil && o.verdictOut != "" {
		f, err := os.Create(o.verdictOut)
		if err != nil {
			return 1, err
		}
		if err := verdict.WriteJSON(f); err != nil {
			f.Close()
			return 1, err
		}
		if err := f.Close(); err != nil {
			return 1, err
		}
	}
	if verdict != nil && !verdict.Pass {
		return exitBreach, fmt.Errorf("SLO breach: %v", verdict.Failing())
	}
	return 0, nil
}

// loadSeries resolves the one configured input source.
func loadSeries(o options) (*series.Series, error) {
	if (o.seriesPath == "") == (o.url == "") {
		return nil, fmt.Errorf("set exactly one of -series and -url")
	}
	switch {
	case o.seriesPath == "-":
		return series.ReadJSONL(os.Stdin)
	case o.seriesPath != "":
		f, err := os.Open(o.seriesPath)
		if err != nil {
			return nil, err
		}
		defer f.Close()
		return series.ReadJSONL(f)
	default:
		resp, err := http.Get(o.url)
		if err != nil {
			return nil, err
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			return nil, fmt.Errorf("GET %s: %s", o.url, resp.Status)
		}
		return series.ReadJSONL(resp.Body)
	}
}

// loadSpecs resolves the SLO spec set: an explicit file wins, then the
// named profile, then none (report without a verdict).
func loadSpecs(o options) ([]slo.Spec, error) {
	if o.sloPath != "" {
		f, err := os.Open(o.sloPath)
		if err != nil {
			return nil, err
		}
		defer f.Close()
		return slo.ReadSpecs(f)
	}
	switch o.profile {
	case "":
		return nil, nil
	case "soak":
		return slo.SoakSpecs(o.maxMissRate, o.maxP99, o.maxDrift), nil
	case "serve":
		return slo.ServeSpecs(o.maxShedRate, o.maxP99ms), nil
	default:
		return nil, fmt.Errorf("unknown -profile %q (want soak or serve)", o.profile)
	}
}
