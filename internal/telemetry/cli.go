// Command-line plumbing shared by the module's binaries: flag
// registration and output routing for the telemetry recorder and the
// pprof profiles.
//
// Deterministic telemetry (metrics, traces) is written to the configured
// files — stderr for "-" — never to stdout, so experiment stdout stays
// byte-identical with telemetry on or off.
package telemetry

import (
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/pprof"
)

// CLI bundles the standard telemetry and profiling options of the SDEM
// commands. Register it on a FlagSet, call Recorder for the (possibly
// nil) recorder to thread through the run, and Finish once at exit.
type CLI struct {
	// Enabled turns collection on even when no output path is given (the
	// metrics dump then defaults to stderr).
	Enabled bool
	// TraceOut is the trace destination ("-" = stderr): a Chrome
	// trace_event JSON array loadable in Perfetto or chrome://tracing.
	TraceOut string
	// MetricsOut is the metrics-dump destination ("-" = stderr).
	MetricsOut string
	// CPUProfile and MemProfile are pprof output paths.
	CPUProfile string
	MemProfile string

	rec        *Recorder
	cpuStarted bool
}

// Register declares the telemetry flags on the flag set.
func (c *CLI) Register(fs *flag.FlagSet) {
	fs.BoolVar(&c.Enabled, "telemetry", false, "collect metrics and traces (deterministic; stdout is unchanged)")
	fs.StringVar(&c.TraceOut, "trace-out", "", "write the event trace to this file (Chrome trace_event JSON; '-' = stderr); implies -telemetry")
	fs.StringVar(&c.MetricsOut, "metrics-out", "", "write the metrics dump to this file ('-' = stderr); implies -telemetry")
	fs.StringVar(&c.CPUProfile, "cpuprofile", "", "write a pprof CPU profile to this file")
	fs.StringVar(&c.MemProfile, "memprofile", "", "write a pprof heap profile to this file")
}

// Recorder returns the recorder to thread through the run: nil (the
// zero-cost disabled state) unless -telemetry, -trace-out or -metrics-out
// was given. Repeated calls return the same recorder.
func (c *CLI) Recorder() *Recorder {
	if !c.Enabled && c.TraceOut == "" && c.MetricsOut == "" {
		return nil
	}
	if c.rec == nil {
		c.rec = New()
	}
	return c.rec
}

// Start begins CPU profiling when requested. Call before the measured
// work; Finish stops it.
func (c *CLI) Start() error {
	if c.CPUProfile == "" {
		return nil
	}
	f, err := os.Create(c.CPUProfile)
	if err != nil {
		return fmt.Errorf("telemetry: -cpuprofile: %w", err)
	}
	if err := pprof.StartCPUProfile(f); err != nil {
		f.Close()
		return fmt.Errorf("telemetry: -cpuprofile: %w", err)
	}
	c.cpuStarted = true
	return nil
}

// openOut resolves an output spec: "-" is stderr (close is a no-op).
func openOut(spec string) (io.Writer, func() error, error) {
	if spec == "-" {
		return os.Stderr, func() error { return nil }, nil
	}
	f, err := os.Create(spec)
	if err != nil {
		return nil, nil, err
	}
	return f, f.Close, nil
}

// Finish stops profiling and writes every requested output: the metrics
// dump, the trace, the heap profile, and — whenever collection was on —
// the wall-clock profile report to stderr.
func (c *CLI) Finish() error {
	if c.cpuStarted {
		pprof.StopCPUProfile()
		c.cpuStarted = false
	}
	if c.MemProfile != "" {
		f, err := os.Create(c.MemProfile)
		if err != nil {
			return fmt.Errorf("telemetry: -memprofile: %w", err)
		}
		runtime.GC()
		if err := pprof.WriteHeapProfile(f); err != nil {
			f.Close()
			return fmt.Errorf("telemetry: -memprofile: %w", err)
		}
		if err := f.Close(); err != nil {
			return err
		}
	}
	tel := c.Recorder()
	if tel == nil {
		return nil
	}
	metricsOut := c.MetricsOut
	if metricsOut == "" {
		metricsOut = "-"
	}
	w, closeW, err := openOut(metricsOut)
	if err != nil {
		return fmt.Errorf("telemetry: -metrics-out: %w", err)
	}
	if err := tel.WriteMetrics(w); err != nil {
		closeW()
		return err
	}
	if err := closeW(); err != nil {
		return err
	}
	if c.TraceOut != "" {
		w, closeW, err := openOut(c.TraceOut)
		if err != nil {
			return fmt.Errorf("telemetry: -trace-out: %w", err)
		}
		if err := tel.WriteChromeTrace(w); err != nil {
			closeW()
			return err
		}
		if err := closeW(); err != nil {
			return err
		}
	}
	return tel.Prof.Report(os.Stderr)
}
