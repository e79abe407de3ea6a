// Command sdemlint runs the SDEM static-analysis suite — floatcmp,
// tolconst, unitcheck, auditcheck, randsource, telemetrycheck, detcheck,
// hotalloc and sharedmut (-list describes each) — over the requested
// packages and exits non-zero when any invariant is violated.
//
// Usage:
//
//	go run ./cmd/sdemlint ./...
//	go run ./cmd/sdemlint -only floatcmp,tolconst ./internal/agreeable/...
//
// Findings print as file:line:col: message (analyzer). Suppress a single
// finding with a trailing or preceding comment:
//
//	if a == b { //lint:allow floatcmp: bit-exact sentinel comparison
//
// A //lint:allow naming an analyzer of the run that suppresses none of
// its findings is itself reported, so stale suppressions cannot pile up.
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"sdem/internal/lint"
	"sdem/internal/lint/analysis"
)

func main() {
	only := flag.String("only", "", "comma-separated analyzer names to run (default: all)")
	list := flag.Bool("list", false, "list available analyzers and exit")
	flag.Usage = func() {
		fmt.Fprintf(flag.CommandLine.Output(), "usage: sdemlint [flags] [packages]\n\n")
		flag.PrintDefaults()
		fmt.Fprintf(flag.CommandLine.Output(), "\nanalyzers:\n")
		for _, a := range lint.Analyzers() {
			fmt.Fprintf(flag.CommandLine.Output(), "  %-10s %s\n", a.Name, a.Doc)
		}
	}
	flag.Parse()

	analyzers := lint.Analyzers()
	if *list {
		for _, a := range analyzers {
			fmt.Printf("%-10s %s\n", a.Name, a.Doc)
		}
		return
	}
	if *only != "" {
		byName := make(map[string]*analysis.Analyzer)
		for _, a := range analyzers {
			byName[a.Name] = a
		}
		var selected []*analysis.Analyzer
		for _, name := range strings.Split(*only, ",") {
			a, ok := byName[strings.TrimSpace(name)]
			if !ok {
				fmt.Fprintf(os.Stderr, "sdemlint: unknown analyzer %q\n", name)
				os.Exit(2)
			}
			selected = append(selected, a)
		}
		analyzers = selected
	}

	patterns := flag.Args()
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	wd, err := os.Getwd()
	if err != nil {
		fmt.Fprintln(os.Stderr, "sdemlint:", err)
		os.Exit(2)
	}
	diags, err := lint.Run(wd, patterns, analyzers)
	if err != nil {
		fmt.Fprintln(os.Stderr, "sdemlint:", err)
		os.Exit(2)
	}
	for _, d := range diags {
		fmt.Println(d)
	}
	if len(diags) > 0 {
		fmt.Fprintf(os.Stderr, "sdemlint: %d finding(s)\n", len(diags))
		os.Exit(1)
	}
}
