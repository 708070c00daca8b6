package distbuild

import (
	"os"
	"testing"

	"pseudosphere/internal/pc"
	"pseudosphere/internal/topology"
)

// FuzzDecodeShardFrame hammers the completion-frame decoder with
// arbitrary bytes plus mutations of a valid frame. The decoder sits on a
// fleet-internal endpoint, but a crashed-and-restarted worker (or a
// proxy truncation) can hand it anything; it must reject garbage with an
// error — never panic, never return a half-validated complex.
func FuzzDecodeShardFrame(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte("garbage"))

	// A small valid frame as a mutation seed: two facets on three
	// vertices.
	res := pc.NewResult()
	s1, err := topology.NewSimplex(
		topology.Vertex{P: 0, Label: "a"},
		topology.Vertex{P: 1, Label: "b"},
	)
	if err != nil {
		f.Fatal(err)
	}
	s2, err := topology.NewSimplex(
		topology.Vertex{P: 1, Label: "b"},
		topology.Vertex{P: 2, Label: "c"},
	)
	if err != nil {
		f.Fatal(err)
	}
	res.Complex.AddClosed(s1)
	res.Complex.AddClosed(s2)
	f.Add(EncodeShardDelta("seed-build", 42, []int{0, 1}, res))
	f.Add(EncodeShardDelta("", 0, nil, pc.NewResult()))

	// A real two-round shard in insertion order, and the same build as
	// the sorted encoder wrote it.
	_, _, plan := testModel(f, "model=iis&n=2&r=2")
	shard := pc.NewResult()
	if err := plan.RunShard(shard, 0); err != nil {
		f.Fatal(err)
	}
	f.Add(EncodeShardDelta("seed-build", 1, []int{0}, shard))
	golden, err := os.ReadFile("testdata/iis-n2-r2-sorted.frame")
	if err != nil {
		f.Fatal(err)
	}
	f.Add(golden)

	f.Fuzz(func(t *testing.T, raw []byte) {
		delta, err := DecodeShardFrame(raw)
		if err != nil {
			return
		}
		// Whatever decoded must be internally coherent: a named build,
		// non-negative shard indices, and a walkable complex.
		if delta.Build == "" {
			t.Fatal("decoded frame with empty build id")
		}
		if len(delta.Shards) == 0 {
			t.Fatal("decoded frame with no shards")
		}
		for _, s := range delta.Shards {
			if s < 0 {
				t.Fatalf("decoded negative shard index %d", s)
			}
		}
		if delta.Result == nil {
			t.Fatal("decoded frame with nil result")
		}
		_ = delta.Result.Complex.CanonicalHash()
	})
}
