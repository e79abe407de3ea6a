// Command sdem schedules a generated task set with any of the library's
// schedulers and prints the audited energy breakdown, optionally with a
// Gantt chart.
//
// Usage:
//
//	sdem -algo auto -workload synthetic -n 20 -x 400 -seed 1 -gantt
//	sdem -algo sdem-on -workload fft -n 30 -u 4
//	sdem -algo mbkps -workload matmul -n 30 -u 6
//
// Algorithms: auto (offline optimal by task model), sdem-on, mbkp, mbkps,
// race, critical. Workloads: synthetic, fft, matmul, mixed.
package main

import (
	"flag"
	"fmt"
	"os"

	"sdem"
	"sdem/internal/core"
	"sdem/internal/encode"
	"sdem/internal/telemetry"
)

func main() {
	var (
		algo    = flag.String("algo", "auto", "scheduler: auto|bounded|sdem-on|mbkp|mbkps|race|critical")
		wl      = flag.String("workload", "synthetic", "workload: synthetic|fft|matmul|mixed")
		n       = flag.Int("n", 20, "number of tasks")
		seed    = flag.Int64("seed", 1, "workload seed")
		x       = flag.Float64("x", 400, "synthetic max inter-arrival time (ms)")
		u       = flag.Float64("u", 4, "benchmark utilization divisor U")
		cores   = flag.Int("cores", 8, "number of cores")
		alphaM  = flag.Float64("alpha_m", 4, "memory static power (W)")
		xiM     = flag.Float64("xi_m", 40, "memory break-even time (ms)")
		xi      = flag.Float64("xi", 1, "core break-even time (ms)")
		alpha0  = flag.Bool("alpha0", false, "treat core static power as negligible (α = 0 model)")
		gantt   = flag.Bool("gantt", false, "print a Gantt chart")
		speeds  = flag.Bool("speeds", false, "list per-task speeds")
		common  = flag.Bool("common", false, "collapse all releases to the first one (common-release model, required by -algo bounded)")
		tasksIn = flag.String("tasks", "", "load the task set from a JSON file instead of generating one")
		out     = flag.String("out", "", "write the run (tasks, system, schedule, breakdown) as JSON to this file")
		tcli    telemetry.CLI
	)
	tcli.Register(flag.CommandLine)
	flag.Parse()
	if err := tcli.Start(); err != nil {
		fmt.Fprintln(os.Stderr, "sdem:", err)
		os.Exit(1)
	}
	if err := run(*algo, *wl, *n, *seed, *x, *u, *cores, *alphaM, *xiM, *xi, *alpha0, *gantt, *speeds, *common, *tasksIn, *out, tcli.Recorder()); err != nil {
		fmt.Fprintln(os.Stderr, "sdem:", err)
		os.Exit(1)
	}
	if err := tcli.Finish(); err != nil {
		fmt.Fprintln(os.Stderr, "sdem:", err)
		os.Exit(1)
	}
}

func run(algo, wl string, n int, seed int64, x, u float64, cores int, alphaM, xiM, xi float64, alpha0, gantt, speeds, common bool, tasksIn, out string, tel *telemetry.Recorder) error {
	sys := sdem.DefaultSystem()
	sys.Cores = cores
	sys.Memory.Static = alphaM
	sys.Memory.BreakEven = sdem.Milliseconds(xiM)
	sys.Core.BreakEven = sdem.Milliseconds(xi)
	if alpha0 {
		sys.Core.Static = 0
		sys.Core.BreakEven = 0
	}

	var tasks sdem.TaskSet
	var err error
	if tasksIn != "" {
		data, rerr := os.ReadFile(tasksIn)
		if rerr != nil {
			return rerr
		}
		tasks, err = encode.UnmarshalTasks(data)
		if err != nil {
			return err
		}
		wl = "file:" + tasksIn
	} else {
		switch wl {
		case "synthetic":
			tasks, err = sdem.SyntheticWorkload(sdem.SyntheticConfig{N: n, MaxInterArrival: sdem.Milliseconds(x)}, seed)
		case "fft":
			tasks, err = sdem.BenchmarkWorkload(sdem.BenchmarkConfig{N: n, Kernel: sdem.KernelFFT, U: u}, seed)
		case "matmul":
			tasks, err = sdem.BenchmarkWorkload(sdem.BenchmarkConfig{N: n, Kernel: sdem.KernelMatMul, U: u}, seed)
		case "mixed":
			tasks, err = sdem.BenchmarkWorkload(sdem.BenchmarkConfig{N: n, Kernel: sdem.KernelMixed, U: u}, seed)
		default:
			return fmt.Errorf("unknown workload %q", wl)
		}
	}
	if err != nil {
		return err
	}
	if common && len(tasks) > 0 {
		r0 := tasks[0].Release
		for i := range tasks {
			window := tasks[i].Window()
			tasks[i].Release = r0
			tasks[i].Deadline = r0 + window
		}
	}
	fmt.Printf("workload: %s, %d tasks, model %v\n", wl, len(tasks), tasks.Classify())

	var sched *sdem.Schedule
	switch algo {
	case "auto":
		sol, res, err := core.Auto(nil, tasks, sys, tel)
		switch {
		case err != nil:
			return err
		case sol != nil:
			sched = sol.Schedule
			fmt.Printf("offline optimal (%s on a %v model)\n", sol.Scheme, sol.Model)
		default:
			warnMisses(res)
			sched = res.Schedule
			fmt.Println("general model: fell back to SDEM-ON (online §6)")
		}
	case "bounded":
		res, err := sdem.SolveBoundedGeneral(tasks, sys)
		if err != nil {
			return err
		}
		sched = res.Schedule
		fmt.Printf("bounded-core heuristic on %d cores, busy %.4g ms\n", cores, res.BusyLen*1e3)
	default:
		scheduler, err := core.LookupScheduler(algo)
		if err != nil {
			return fmt.Errorf("unknown algorithm %q", algo)
		}
		res, err := scheduler(nil, tasks, sys, tel)
		if err != nil {
			return err
		}
		warnMisses(res)
		sched = res.Schedule
	}

	b := sdem.Audit(sched, sys)
	fmt.Printf("energy breakdown (J):\n")
	fmt.Printf("  core dynamic      %12.6f\n", b.CoreDynamic)
	fmt.Printf("  core static       %12.6f\n", b.CoreStatic)
	fmt.Printf("  core transitions  %12.6f  (%d sleeps)\n", b.CoreTransition, b.CoreSleeps)
	fmt.Printf("  memory static     %12.6f\n", b.MemoryStatic)
	fmt.Printf("  memory transitions%12.6f  (%d sleeps, %.4fs asleep)\n", b.MemoryTransition, b.MemorySleeps, b.MemorySleep)
	fmt.Printf("  TOTAL             %12.6f\n", b.Total())

	if speeds {
		for c, segs := range sched.Cores {
			for _, sg := range segs {
				fmt.Printf("  core %d task %d: [%.4fs, %.4fs] @ %.1f MHz\n",
					c, sg.TaskID, sg.Start, sg.End, sg.Speed/1e6)
			}
		}
	}
	if gantt {
		fmt.Println()
		fmt.Print(sdem.Gantt(sched))
	}
	if out != "" {
		data, err := encode.MarshalRun(encode.Run{
			Tasks: tasks, System: sys, Schedule: sched, Breakdown: b,
		})
		if err != nil {
			return err
		}
		if err := os.WriteFile(out, append(data, '\n'), 0o644); err != nil {
			return err
		}
		fmt.Printf("run written to %s\n", out)
	}
	return nil
}

// warnMisses prints the deadline misses of an online run.
func warnMisses(res *sdem.OnlineResult) {
	if len(res.Misses) > 0 {
		fmt.Printf("WARNING: %d deadline misses: %v\n", len(res.Misses), res.Misses)
	}
}
