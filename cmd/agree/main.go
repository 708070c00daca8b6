// Command agree runs the concrete agreement protocols on the
// message-passing runtime under one of the three timing models and reports
// the outcome against the task conditions.
//
// Usage:
//
//	agree -model sync -inputs 0,1,2 -f 1 -k 1 [-crash 0@1]
//	agree -model async -inputs 0,1,2 -f 1 -k 2 [-seed 7]
//	agree -model semisync -inputs 0,1,2 -f 1 -k 1 -c1 1 -c2 2 -d 2
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"sort"
	"strconv"
	"strings"

	"pseudosphere/internal/bounds"
	"pseudosphere/internal/protocols"
	"pseudosphere/internal/sim"
	"pseudosphere/internal/task"
)

func main() {
	model := flag.String("model", "sync", "sync, async, or semisync")
	proto := flag.String("protocol", "flood", "sync only: flood (floor(f/k)+1 rounds) or early (early-stopping consensus)")
	inputs := flag.String("inputs", "0,1,2", "comma-separated input values, one per process")
	f := flag.Int("f", 1, "failure bound")
	k := flag.Int("k", 1, "agreement parameter (1 = consensus)")
	crash := flag.String("crash", "", "sync: crashes as p@round[:recv1;recv2], comma separated; semisync: p@time")
	seed := flag.Int64("seed", 1, "async: delivery schedule seed")
	c1 := flag.Int("c1", 1, "semisync: min step interval")
	c2 := flag.Int("c2", 2, "semisync: max step interval")
	d := flag.Int("d", 2, "semisync: max delivery delay")
	flag.Parse()
	if err := run(os.Stdout, *model, *proto, *inputs, *f, *k, *crash, *seed, *c1, *c2, *d); err != nil {
		fmt.Fprintln(os.Stderr, "agree:", err)
		os.Exit(1)
	}
}

func run(w io.Writer, model, proto, inputList string, f, k int, crash string, seed int64, c1, c2, d int) error {
	inputs := strings.Split(inputList, ",")
	n1 := len(inputs)
	if n1 == 0 {
		return fmt.Errorf("need at least one input")
	}

	var out *task.RunOutcome
	switch model {
	case "sync":
		crashes, err := parseRoundCrashes(crash)
		if err != nil {
			return err
		}
		if err := crashes.Validate(n1, f); err != nil {
			return err
		}
		rounds := protocols.FloodSetRounds(f, k)
		var factory sim.ProtocolFactory
		switch proto {
		case "flood":
			fmt.Fprintf(w, "synchronous flooding: %d rounds (= floor(%d/%d)+1, Theorem 18 tight)\n", rounds, f, k)
			factory = protocols.NewSyncKSet(f, k)
		case "early":
			if k != 1 {
				return fmt.Errorf("the early-stopping protocol solves consensus; use -k 1")
			}
			fmt.Fprintf(w, "early-stopping consensus: decides when a round shows no new failures (at most %d rounds)\n", f+1)
			factory = protocols.NewEarlyDecidingConsensus(f)
		default:
			return fmt.Errorf("unknown sync protocol %q (want flood or early)", proto)
		}
		out, err = sim.RunSync(inputs, factory, crashes, rounds+1)
		if err != nil {
			return err
		}
	case "async":
		if !bounds.AsyncSolvable(k, f) {
			return fmt.Errorf("k=%d <= f=%d: impossible in the asynchronous model (Corollary 13); try k >= %d", k, f, f+1)
		}
		sched := sim.NewRandomAsyncSchedule(n1, f, seed)
		fmt.Fprintf(w, "asynchronous one-round protocol (k=%d >= f+1=%d)\n", k, f+1)
		var err error
		out, err = sim.RunAsync(inputs, protocols.NewAsyncKSet(), nil, sched, 2)
		if err != nil {
			return err
		}
	case "semisync":
		crashes, err := parseTimedCrashes(crash)
		if err != nil {
			return err
		}
		if err := crashes.Validate(n1, f); err != nil {
			return err
		}
		timing := sim.Timing{C1: c1, C2: c2, D: d}
		for _, warn := range timing.Warnings() {
			fmt.Fprintln(os.Stderr, "agree: warning:", warn)
		}
		lb, err := bounds.SemiSyncTimeLowerBound(f, k, c1, c2, d)
		if err != nil {
			return err
		}
		fmt.Fprintf(w, "semi-synchronous epoch protocol; Corollary 22 lower bound: %s time units\n", lb)
		runOut, err := sim.RunTimed(inputs, protocols.NewSemiSyncKSet(f, k), timing,
			sim.LockstepSchedule{Timing: timing}, crashes, 1_000_000)
		if err != nil {
			return err
		}
		out = runOut.Outcome
		times := make([]string, 0, len(runOut.DecidedAt))
		ids := make([]int, 0, len(runOut.DecidedAt))
		for p := range runOut.DecidedAt {
			ids = append(ids, p)
		}
		sort.Ints(ids)
		for _, p := range ids {
			times = append(times, fmt.Sprintf("P%d@%d", p, runOut.DecidedAt[p]))
		}
		fmt.Fprintf(w, "decision times: %s\n", strings.Join(times, " "))
	default:
		return fmt.Errorf("unknown model %q", model)
	}

	printOutcome(w, out)
	if err := out.CheckKSetAgreement(k); err != nil {
		return fmt.Errorf("task violated: %w", err)
	}
	fmt.Fprintf(w, "k-set agreement with k=%d: satisfied\n", k)
	return nil
}

func printOutcome(w io.Writer, out *task.RunOutcome) {
	ids := make([]int, 0, len(out.Inputs))
	for p := range out.Inputs {
		ids = append(ids, p)
	}
	sort.Ints(ids)
	for _, p := range ids {
		status := "decided " + out.Decisions[p]
		if out.Crashed[p] {
			status = "crashed"
			if d, ok := out.Decisions[p]; ok {
				status = "crashed after deciding " + d
			}
		}
		fmt.Fprintf(w, "P%d: input %s, %s\n", p, out.Inputs[p], status)
	}
}

// parseRoundCrashes parses "0@1:1;2,3@2" = process 0 crashes in round 1
// delivering to 1 and 2; process 3 crashes in round 2 delivering nothing.
func parseRoundCrashes(s string) (sim.CrashSchedule, error) {
	cs := make(sim.CrashSchedule)
	if s == "" {
		return cs, nil
	}
	for _, part := range strings.Split(s, ",") {
		spec, recvs, _ := strings.Cut(part, ":")
		pStr, rStr, ok := strings.Cut(spec, "@")
		if !ok {
			return nil, fmt.Errorf("bad crash spec %q (want p@round)", part)
		}
		p, err := strconv.Atoi(pStr)
		if err != nil {
			return nil, fmt.Errorf("bad process in %q", part)
		}
		r, err := strconv.Atoi(rStr)
		if err != nil {
			return nil, fmt.Errorf("bad round in %q", part)
		}
		delivered := make(map[int]bool)
		if recvs != "" {
			for _, q := range strings.Split(recvs, ";") {
				qi, err := strconv.Atoi(q)
				if err != nil {
					return nil, fmt.Errorf("bad receiver in %q", part)
				}
				delivered[qi] = true
			}
		}
		cs[p] = sim.Crash{Round: r, DeliveredTo: delivered}
	}
	return cs, nil
}

// parseTimedCrashes parses "0@3,2@7" = process 0 crashes at time 3,
// process 2 at time 7.
func parseTimedCrashes(s string) (sim.TimedCrashSchedule, error) {
	cs := make(sim.TimedCrashSchedule)
	if s == "" {
		return cs, nil
	}
	for _, part := range strings.Split(s, ",") {
		pStr, tStr, ok := strings.Cut(part, "@")
		if !ok {
			return nil, fmt.Errorf("bad crash spec %q (want p@time)", part)
		}
		p, err := strconv.Atoi(pStr)
		if err != nil {
			return nil, fmt.Errorf("bad process in %q", part)
		}
		t, err := strconv.Atoi(tStr)
		if err != nil {
			return nil, fmt.Errorf("bad time in %q", part)
		}
		cs[p] = sim.TimedCrash{Time: t}
	}
	return cs, nil
}
