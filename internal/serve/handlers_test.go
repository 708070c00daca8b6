package serve

import (
	"context"
	"net/url"
	"testing"

	"pseudosphere/internal/modelspec"
)

// BenchmarkStatsOf times the statistics pass every endpoint reports on an
// A^1 n=3 f=3 complex (4,096 facets) whose canonical hash is not yet
// memoized, as on the rounds endpoint. Counting facets by sorting them
// costs several times the rest of the pass.
func BenchmarkStatsOf(b *testing.B) {
	inst, err := modelspec.FromQuery(url.Values{"model": {"async"}, "n": {"3"}, "f": {"3"}, "r": {"1"}})
	if err != nil {
		b.Fatal(err)
	}
	res, err := inst.Build(context.Background(), inputSimplex(inst.M), 1)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		c := res.Complex.Clone()
		b.StartTimer()
		if st := statsOf(c); st.Facets != 4096 {
			b.Fatalf("statsOf counted %d facets, want 4096", st.Facets)
		}
	}
}
