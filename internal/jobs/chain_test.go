package jobs_test

import (
	"bytes"
	"context"
	"encoding/binary"
	"encoding/json"
	"os"
	"path/filepath"
	"slices"
	"testing"

	"pseudosphere/internal/jobs"
	"pseudosphere/internal/modelspec"
	"pseudosphere/internal/obs"
	"pseudosphere/internal/pc"
	"pseudosphere/internal/roundop"
	"pseudosphere/internal/store"
	"pseudosphere/internal/topology"
	"pseudosphere/internal/views"
)

// a1n3f3 is A^1 n=3 f=3: 32 shards of 128 facets.
const a1n3f3 = "model=async&n=3&f=3&r=1"

// checkSound fails unless res is a face-closed chromatic complex whose
// every vertex has a view, its label being that view's canonical encoding.
func checkSound(t *testing.T, res *pc.Result) {
	t.Helper()
	c := res.Complex
	var faces []int32
	for ei := int32(0); ei < int32(c.EntryCount()); ei++ {
		if faces = c.EntryFaces(ei, faces[:0]); slices.Contains(faces, -1) {
			t.Fatalf("entry %v lacks a face", c.EntrySimplex(ei))
		}
		s := c.EntrySimplex(ei)
		for i := 1; i < len(s); i++ {
			if s[i-1].P >= s[i].P {
				t.Fatalf("entry %v is not chromatic", s)
			}
		}
	}
	for id := int32(0); id < int32(c.VertexCount()); id++ {
		v := c.VertexAt(id)
		view, ok := res.Views[v]
		if _, err := views.Decode(v.Label); err != nil || !ok || view.P != v.P || view.Encode() != v.Label {
			t.Fatalf("vertex %v has no canonical view", v)
		}
	}
}

// frameEnds returns the end offset of every frame of a log.
func frameEnds(tb testing.TB, raw []byte) []int {
	tb.Helper()
	var ends []int
	for rest := raw; len(rest) > 0; {
		_, r, ok := store.NextFrame(rest)
		if !ok {
			tb.Fatalf("log damaged at offset %d", len(raw)-len(rest))
		}
		rest = r
		ends = append(ends, len(raw)-len(rest))
	}
	return ends
}

// writeLog builds a query's complex at one worker through a fresh
// checkpoint log flushed every flushEvery shards, and returns the log.
func writeLog(tb testing.TB, query string, flushEvery int) []byte {
	tb.Helper()
	inst, input := buildQuery(tb, query)
	path := filepath.Join(tb.TempDir(), "write.ckpt")
	log, err := jobs.OpenCheckpointLog(path)
	if err != nil {
		tb.Fatal(err)
	}
	if _, err := inst.BuildCkpt(context.Background(), input, 1, flushEvery, log); err != nil {
		tb.Fatal(err)
	}
	if err := log.Close(); err != nil {
		tb.Fatal(err)
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		tb.Fatal(err)
	}
	return raw
}

// shardResults runs every shard of inst over input into its own result.
func shardResults(t *testing.T, inst *modelspec.Instance, input topology.Simplex) []*pc.Result {
	t.Helper()
	plan, err := roundop.PlanShards(inst.Operator(), input, inst.R)
	if err != nil {
		t.Fatal(err)
	}
	out := make([]*pc.Result, plan.NumShards())
	for i := range out {
		out[i] = pc.NewResult()
		if err := plan.RunShard(out[i], i); err != nil {
			t.Fatal(err)
		}
	}
	return out
}

// resume builds inst over input through log and returns the tracker's
// counters, failing unless the build lands on want.
func resume(t *testing.T, inst *modelspec.Instance, input topology.Simplex, log *jobs.CheckpointLog, want string) map[string]uint64 {
	t.Helper()
	tr := obs.NewTracker()
	res, err := inst.BuildCkpt(obs.WithTracker(context.Background(), tr), input, 1, 8, log)
	if err != nil {
		t.Fatal(err)
	}
	if got := res.Complex.CanonicalHash(); got != want {
		t.Fatalf("resumed build hashes %s, want %s", got, want)
	}
	return tr.Counters()
}

// TestChainCutAnywhere cuts a log written one shard per record at every
// frame boundary and inside every frame, through its header and through
// its payload, as a SIGKILL mid-write might. Every cut restores a
// face-closed chromatic complex that holds RunShard of every shard it
// reports done and lies inside the full build, and a build resumed over
// it lands on the full build's hash.
func TestChainCutAnywhere(t *testing.T) {
	inst, input := buildQuery(t, a1n3f3)
	full := buildResult(t, a1n3f3)
	want := full.Complex.CanonicalHash()
	shards := shardResults(t, inst, input)
	raw := writeLog(t, a1n3f3, 1)
	ends := frameEnds(t, raw)
	if len(ends) != len(shards) {
		t.Fatalf("log holds %d records for %d shards", len(ends), len(shards))
	}
	start := 0
	for k, end := range ends {
		for _, cut := range []int{start + 10, (start + end) / 2, end} {
			log := openCopy(t, raw[:cut])
			done, partial, err := log.Restore(len(shards))
			if err != nil {
				t.Fatal(err)
			}
			complete := k
			if cut == end {
				complete = k + 1
			}
			if complete == 0 {
				if done != nil || partial != nil {
					t.Fatalf("cut %d inside the first record restored something", cut)
				}
				continue
			}
			for s, d := range done {
				if d != (s < complete) {
					t.Fatalf("cut %d after %d records: shard %d done = %v", cut, complete, s, d)
				}
				if d && !shards[s].Complex.IsSubcomplexOf(partial.Complex) {
					t.Fatalf("cut %d: restored complex lacks done shard %d", cut, s)
				}
			}
			checkSound(t, partial)
			if !partial.Complex.IsSubcomplexOf(full.Complex) {
				t.Fatalf("cut %d: restored complex leaves the full build", cut)
			}
			if c := resume(t, inst, input, openCopy(t, raw[:cut]), want); c["shards_restored"] != uint64(complete) {
				t.Fatalf("cut %d: resumed over %d restored shards, want %d", cut, c["shards_restored"], complete)
			}
		}
		start = end
	}
}

// tailFrame frames a pc record as a tail shard record of a total-shard
// build.
func tailFrame(total int, rec []byte) []byte {
	payload := binary.AppendUvarint([]byte{0x01}, uint64(total))
	return store.EncodeFrame(append(payload, rec...))
}

// encodeRecord writes a pc record field by field, so the rejection table
// can state records no result produces.
func encodeRecord(done []int, base pc.Mark, verts []topology.Vertex, rows [][]int32) []byte {
	var b []byte
	u := func(v int) { b = binary.AppendUvarint(b, uint64(v)) }
	u(len(done))
	for _, s := range done {
		u(s)
	}
	u(base.Verts)
	u(base.Entries)
	u(len(verts))
	for _, v := range verts {
		u(v.P)
		u(len(v.Label))
		b = append(b, v.Label...)
	}
	u(len(rows))
	for _, row := range rows {
		u(len(row))
		for _, id := range row {
			u(int(id))
		}
	}
	return b
}

// TestChainRejects: a record that fails validation ends the replay where
// it stands. Restore returns what the records before it hold, cuts the
// log there, dropping it and every record after it, and a resumed build
// appends to the cut log a chain that restores whole.
func TestChainRejects(t *testing.T) {
	inst, input := buildQuery(t, a1n3f3)
	want := buildResult(t, a1n3f3).Complex.CanonicalHash()
	raw := writeLog(t, a1n3f3, 1)
	ends := frameEnds(t, raw)
	first, second := raw[:ends[0]], raw[ends[0]:ends[1]]
	total := len(ends)

	_, prefix, err := openCopy(t, first).Restore(total)
	if err != nil {
		t.Fatal(err)
	}
	m := prefix.Mark()
	byP := map[int]int32{}
	for id := int32(0); id < int32(m.Verts); id++ {
		byP[prefix.Complex.VertexAt(id).P] = id
	}
	p0, p1, fresh := byP[0], byP[1], int32(m.Verts)
	newVert := []topology.Vertex{{P: 2, Label: views.Initial(2, "zz").Encode()}}

	for _, tc := range []struct {
		name string
		bad  []byte
	}{
		{"id past the vertex table", tailFrame(total, encodeRecord([]int{1}, m, nil, [][]int32{{fresh}}))},
		{"row out of process order", tailFrame(total, encodeRecord([]int{1}, m, nil, [][]int32{{p1, p0}}))},
		{"duplicate entry", tailFrame(total, encodeRecord([]int{1}, m, nil, [][]int32{{p0}}))},
		{"missing face", tailFrame(total, encodeRecord([]int{1}, m, newVert, [][]int32{{p0, fresh}}))},
		{"counts that do not extend the prefix", tailFrame(total, encodeRecord([]int{1}, pc.Mark{}, newVert, [][]int32{{0}}))},
		{"non-canonical label", tailFrame(total, encodeRecord([]int{1}, m,
			[]topology.Vertex{{P: 2, Label: "2[2:(2=c);0:(0=a)]"}}, [][]int32{{fresh}}))},
		{"another shard count", tailFrame(total+1, encodeRecord([]int{1}, m, nil, nil))},
	} {
		t.Run(tc.name, func(t *testing.T) {
			bad := tc.bad
			damaged := slices.Concat(first, bad, second)
			path := filepath.Join(t.TempDir(), "damaged.ckpt")
			if err := os.WriteFile(path, damaged, 0o644); err != nil {
				t.Fatal(err)
			}
			log, err := jobs.OpenCheckpointLog(path)
			if err != nil {
				t.Fatal(err)
			}
			if c := resume(t, inst, input, log, want); c["shards_restored"] != 1 {
				t.Fatalf("restored %d shards, want the first record's 1", c["shards_restored"])
			}
			if err := log.Close(); err != nil {
				t.Fatal(err)
			}
			after, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.HasPrefix(after, first) || bytes.Contains(after, bad) {
				t.Fatal("the log was not cut at the bad record")
			}
			again, err := jobs.OpenCheckpointLog(path)
			if err != nil {
				t.Fatal(err)
			}
			defer again.Close()
			if got := restoredHash(t, again, total); got != want {
				t.Fatalf("the chain appended after the cut restores to %s, want %s", got, want)
			}
		})
	}
}

// legacyFrame frames a shard record as a previous release wrote it: JSON,
// with delta's whole complex as a vertex table and index rows.
func legacyFrame(t *testing.T, total int, done []int, delta *pc.Result) []byte {
	t.Helper()
	c := delta.Complex
	verts := make([]pc.DeltaVert, c.VertexCount())
	for id := range verts {
		v := c.VertexAt(int32(id))
		verts[id] = pc.DeltaVert{P: v.P, L: v.Label}
	}
	simps := make([][]int32, c.EntryCount())
	for ei := range simps {
		simps[ei] = c.AppendEntryIDs(nil, int32(ei))
	}
	payload, err := json.Marshal(map[string]any{"t": "shards", "total": total, "done": done, "verts": verts, "simps": simps})
	if err != nil {
		t.Fatal(err)
	}
	return store.EncodeFrame(payload)
}

// TestLegacyThenTailLog: a job whose first half ran under a release that
// wrote JSON shard records and whose second half ran after the upgrade
// leaves a log of JSON records followed by tail records. It restores to
// the full complex.
func TestLegacyThenTailLog(t *testing.T) {
	inst, input := buildQuery(t, a1n3f3)
	want := buildResult(t, a1n3f3).Complex.CanonicalHash()
	shards := shardResults(t, inst, input)
	var legacy []byte
	for lo := 0; lo < len(shards)/2; lo += 4 {
		delta := pc.NewResult()
		var done []int
		for s := lo; s < lo+4; s++ {
			delta.Merge(shards[s])
			done = append(done, s)
		}
		legacy = append(legacy, legacyFrame(t, len(shards), done, delta)...)
	}
	path := filepath.Join(t.TempDir(), "upgraded.ckpt")
	if err := os.WriteFile(path, legacy, 0o644); err != nil {
		t.Fatal(err)
	}
	log, err := jobs.OpenCheckpointLog(path)
	if err != nil {
		t.Fatal(err)
	}
	if c := resume(t, inst, input, log, want); c["shards_restored"] != uint64(len(shards)/2) {
		t.Fatalf("restored %d shards from the legacy records, want %d", c["shards_restored"], len(shards)/2)
	}
	if err := log.Close(); err != nil {
		t.Fatal(err)
	}
	after, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.HasPrefix(after, legacy) || len(after) == len(legacy) {
		t.Fatal("the upgraded build did not append tail records after the legacy ones")
	}
	again := openCopy(t, after)
	done, partial, err := again.Restore(len(shards))
	if err != nil {
		t.Fatal(err)
	}
	if slices.Contains(done, false) || partial.Complex.CanonicalHash() != want {
		t.Fatalf("the mixed log restores %v to %s, want every shard and %s", done, partial.Complex.CanonicalHash(), want)
	}
	checkSound(t, partial)
}

// TestRestoreTailLog: the committed log of IIS n=2 r=2 at two shards per
// record plus one rank record (dimension 1, rank 5), as the record codec
// writes it, restores to the pinned complex, so the next codec change
// must keep reading it.
func TestRestoreTailLog(t *testing.T) {
	raw, err := os.ReadFile("testdata/iis-n2-r2-tail.ckpt")
	if err != nil {
		t.Fatal(err)
	}
	tagged := 0
	for rest := raw; len(rest) > 0; {
		payload, r, ok := store.NextFrame(rest)
		if !ok {
			t.Fatal("fixture is damaged")
		}
		if payload[0] == 0x01 {
			tagged++
		}
		rest = r
	}
	if want := (goldenIISShards + 1) / 2; tagged != want {
		t.Fatalf("fixture holds %d tail records, want %d", tagged, want)
	}
	log := openCopy(t, raw)
	done, partial, err := log.Restore(goldenIISShards)
	if err != nil {
		t.Fatal(err)
	}
	if slices.Contains(done, false) || len(done) != goldenIISShards {
		t.Fatalf("golden tail log restores shards %v", done)
	}
	if got := partial.Complex.CanonicalHash(); got != goldenIISHash {
		t.Fatalf("golden tail log restores to %s, want %s", got, goldenIISHash)
	}
	checkSound(t, partial)
	if ranks := log.KnownRanks(goldenIISHash); ranks[1] != 5 || len(ranks) != 1 {
		t.Fatalf("golden rank records = %v, want map[1:5]", ranks)
	}
}
