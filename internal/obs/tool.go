package obs

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"runtime"
	"runtime/pprof"
	"time"
)

// Tool is the run harness of the offline commands (cmd/experiments,
// cmd/connectivity, cmd/benchconstruct): the flags they share, and the
// steps around one run that those flags select.
type Tool struct {
	name       string
	progress   bool
	debugAddr  string
	report     string
	cpuprofile string
	memprofile string
}

// NewTool returns the harness of the tool called name, which prefixes
// its messages and expvar names, and registers the shared flags on the
// command line: -progress, -debug-addr and -report, plus -cpuprofile and
// -memprofile when profiles is set. Call it before flag.Parse.
func NewTool(name string, profiles bool) *Tool {
	t := &Tool{name: name}
	flag.BoolVar(&t.progress, "progress", false, "print periodic progress lines to stderr")
	flag.StringVar(&t.debugAddr, "debug-addr", "", "serve expvar and pprof on this address (e.g. :6060)")
	flag.StringVar(&t.report, "report", "", "write a JSON run report to this file")
	if profiles {
		flag.StringVar(&t.cpuprofile, "cpuprofile", "", "write a CPU profile to this file")
		flag.StringVar(&t.memprofile, "memprofile", "", "write a heap profile to this file")
	}
	return t
}

// Run runs run and returns the process exit code. run's context carries a
// fresh Tracker and is cancelled by SIGINT. Around the run, Run starts the
// CPU profile, the progress lines (every 2 s) and the debug server, whose
// expvar names are "<tool>.counters" and "<tool>.stages"; after it, Run
// writes the heap profile, then the report, with deep and interrupted set,
// an interrupted run's too. The code is 130 when run returns
// context.Canceled, 1 on any other error, else 0. Run's deferred steps
// finish before it returns, so the caller may pass the code to os.Exit.
func (t *Tool) Run(deep bool, run func(context.Context) error) int {
	if t.cpuprofile != "" {
		f, err := os.Create(t.cpuprofile)
		if err != nil {
			return t.fail(err)
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			return t.fail(err)
		}
		defer pprof.StopCPUProfile()
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()
	tracker := NewTracker()
	ctx = WithTracker(ctx, tracker)
	if t.progress {
		defer tracker.StartProgress(os.Stderr, 2*time.Second).Stop()
	}
	if t.debugAddr != "" {
		tracker.PublishExpvar(t.name+".counters", t.name+".stages")
		ds, err := StartDebugServer(t.debugAddr)
		if err != nil {
			return t.fail(err)
		}
		defer ds.Close()
		fmt.Fprintf(os.Stderr, "%s: debug server at http://%s/debug/vars\n", t.name, ds.Addr)
	}

	err := run(ctx)
	if t.memprofile != "" {
		f, merr := os.Create(t.memprofile)
		if merr != nil {
			return t.fail(merr)
		}
		runtime.GC()
		if werr := pprof.WriteHeapProfile(f); werr != nil {
			fmt.Fprintf(os.Stderr, "%s: %v\n", t.name, werr)
		}
		f.Close()
	}
	if t.report != "" {
		rep := tracker.Snapshot(t.name)
		rep.Deep = deep
		rep.Interrupted = ctx.Err() != nil
		if werr := rep.WriteFile(t.report); werr != nil {
			return t.fail(werr)
		}
	}
	if errors.Is(err, context.Canceled) {
		fmt.Fprintf(os.Stderr, "%s: interrupted\n", t.name)
		return 130
	}
	if err != nil {
		return t.fail(err)
	}
	return 0
}

// fail prints err under the tool's name and returns exit code 1.
func (t *Tool) fail(err error) int {
	fmt.Fprintf(os.Stderr, "%s: %v\n", t.name, err)
	return 1
}
