package distbuild

import (
	"os"
	"testing"

	"pseudosphere/internal/pc"
	"pseudosphere/internal/views"
)

// FuzzDecodeShardFrame hammers the completion-frame decoder with
// arbitrary bytes plus mutations of valid frames, and of the JSON frame a
// release before the record codec sent, which must be refused. The
// decoder sits on a fleet-internal endpoint, but a crashed-and-restarted
// worker (or a proxy truncation) can hand it anything; it must reject
// garbage with an error — never panic, never return a half-validated
// complex. Whatever it returns is face-closed and chromatic, with a
// canonical view behind every label.
func FuzzDecodeShardFrame(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte("garbage"))

	// A small valid frame as a mutation seed: two edges on three
	// vertices, with their faces.
	res := pc.NewResult()
	a, b, c := views.Initial(0, "a"), views.Initial(1, "b"), views.Initial(2, "c")
	res.AddFacet([]*views.View{a, b})
	res.AddFacet([]*views.View{b, c})
	small := EncodeShardDelta("seed-build", 42, []int{0, 1}, res)
	if _, err := DecodeShardFrame(small); err != nil {
		f.Fatalf("the small seed frame is refused: %v", err)
	}
	f.Add(small)
	f.Add(EncodeShardDelta("", 0, nil, pc.NewResult()))

	// A real two-round shard in insertion order, and the same build as
	// the sorted JSON encoder wrote it.
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
	// The record codec's golden frame, and a frame of two shards.
	tail, err := os.ReadFile("testdata/iis-n2-r2-tail.frame")
	if err != nil {
		f.Fatal(err)
	}
	f.Add(tail)
	if err := plan.RunShard(shard, 1); err != nil {
		f.Fatal(err)
	}
	f.Add(EncodeShardDelta("seed-build", 2, []int{0, 1}, shard))

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
		checkSound(t, delta.Result)
	})
}
