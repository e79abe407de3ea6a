package sim

// UseEagerTrace makes every recorded run emit its as-run trace eagerly
// through emitTraceEager, until the returned restore is called. Tests
// that use it must not run in parallel with other runs of the package.
func UseEagerTrace() (restore func()) {
	prev := traceRun
	traceRun = emitTraceEager
	return func() { traceRun = prev }
}
