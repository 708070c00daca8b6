package sim

import (
	"math/rand"
	"sort"

	"pseudosphere/internal/task"
)

// SyncPlan is the synchronous model's delivery plan: every round-r message
// reaches every process at the end of round r (crash partial broadcasts
// are clamped by the engine).
func SyncPlan(round int, alive []int) map[int]map[int]int {
	out := make(map[int]map[int]int, len(alive))
	for _, recv := range alive {
		row := make(map[int]int, len(alive))
		for _, s := range alive {
			row[s] = round
		}
		out[recv] = row
	}
	return out
}

// RunSync executes a round-based protocol under the synchronous model with
// the given crash schedule.
func RunSync(inputs []string, factory ProtocolFactory, crashes CrashSchedule, maxRounds int) (*task.RunOutcome, error) {
	e, err := NewEngine(inputs, factory, crashes, SyncPlan, maxRounds)
	if err != nil {
		return nil, err
	}
	return e.Run()
}

// AsyncSchedule chooses, for each receiver in each round, which senders'
// current-round messages arrive by the end of the round. The engine
// supplies FIFO catch-up for skipped earlier rounds automatically.
type AsyncSchedule interface {
	// Heard returns the senders (among alive) whose round-`round` messages
	// reach recv by the end of the round. It must include recv itself and
	// satisfy the model's threshold (at least n-f+1 including recv).
	Heard(round, recv int, alive []int) []int
}

// AsyncPlanFrom adapts an AsyncSchedule to a DeliveryPlan.
func AsyncPlanFrom(s AsyncSchedule) DeliveryPlan {
	return func(round int, alive []int) map[int]map[int]int {
		out := make(map[int]map[int]int, len(alive))
		for _, recv := range alive {
			row := make(map[int]int)
			for _, from := range s.Heard(round, recv, alive) {
				row[from] = round
			}
			out[recv] = row
		}
		return out
	}
}

// RandomAsyncSchedule delivers, to each receiver, its own message plus a
// uniformly random subset of the other alive senders of size at least
// n-f, deterministically from a seed. It realizes the paper's Section 6
// executions adversarially but reproducibly.
type RandomAsyncSchedule struct {
	N1  int // total processes (n+1)
	F   int // failure bound
	rng *rand.Rand
}

// NewRandomAsyncSchedule builds a deterministic random schedule.
func NewRandomAsyncSchedule(n1, f int, seed int64) *RandomAsyncSchedule {
	return &RandomAsyncSchedule{N1: n1, F: f, rng: rand.New(rand.NewSource(seed))}
}

// Heard implements AsyncSchedule.
func (s *RandomAsyncSchedule) Heard(round, recv int, alive []int) []int {
	others := make([]int, 0, len(alive)-1)
	for _, a := range alive {
		if a != recv {
			others = append(others, a)
		}
	}
	min := s.N1 - 1 - s.F // n - f others
	if min < 0 {
		min = 0
	}
	if min > len(others) {
		min = len(others)
	}
	count := min
	if len(others) > min {
		count = min + s.rng.Intn(len(others)-min+1)
	}
	s.rng.Shuffle(len(others), func(i, j int) { others[i], others[j] = others[j], others[i] })
	heard := append([]int{recv}, others[:count]...)
	sort.Ints(heard)
	return heard
}

// FixedAsyncSchedule replays an explicit choice: heard[round][recv] lists
// the senders heard by recv in that round (1-based rounds). Missing
// entries fall back to hearing everyone alive.
type FixedAsyncSchedule struct {
	HeardSets map[int]map[int][]int
}

// Heard implements AsyncSchedule.
func (s *FixedAsyncSchedule) Heard(round, recv int, alive []int) []int {
	if byRecv, ok := s.HeardSets[round]; ok {
		if hs, ok := byRecv[recv]; ok {
			return hs
		}
	}
	return alive
}

// RunAsync executes a round-based protocol under the round-based
// asynchronous model with the given schedule and crash schedule.
func RunAsync(inputs []string, factory ProtocolFactory, crashes CrashSchedule, schedule AsyncSchedule, maxRounds int) (*task.RunOutcome, error) {
	e, err := NewEngine(inputs, factory, crashes, AsyncPlanFrom(schedule), maxRounds)
	if err != nil {
		return nil, err
	}
	return e.Run()
}
