package jobs_test

// Fuzz targets for the two job inputs an attacker (or a crash) controls:
// the submitted spec JSON and the on-disk checkpoint log, plus a
// deterministic mutilation table for the log mirroring the store's
// framing-corruption suite.

import (
	"os"
	"path/filepath"
	"testing"

	"pseudosphere/internal/jobs"
	"pseudosphere/internal/pc"
	"pseudosphere/internal/roundop"
	"pseudosphere/internal/store"
)

// FuzzParseSpec: any body either parses into a bounds-respecting Spec or
// fails with a typed error; it never panics.
func FuzzParseSpec(f *testing.F) {
	f.Add([]byte(`{"endpoint":"rounds","params":{"n":"2","r":"1"}}`))
	f.Add([]byte(`{"endpoint":"pseudosphere"}`))
	f.Add([]byte(`{}`))
	f.Add([]byte(``))
	f.Add([]byte(`{"endpoint":"UPPER"}`))
	f.Add([]byte(`{"endpoint":"x","params":{"":"v"}}`))
	f.Add([]byte(`[1,2,3]`))
	f.Add([]byte(`{"endpoint":"x","params":{"k":null}}`))
	f.Fuzz(func(t *testing.T, data []byte) {
		spec, err := jobs.ParseSpec(data)
		if err != nil {
			return
		}
		if spec.Endpoint == "" || len(spec.Endpoint) > 64 {
			t.Fatalf("accepted endpoint %q", spec.Endpoint)
		}
		for _, r := range spec.Endpoint {
			if (r < 'a' || r > 'z') && (r < '0' || r > '9') && r != '-' && r != '_' {
				t.Fatalf("accepted endpoint %q with charset violation", spec.Endpoint)
			}
		}
		if len(spec.Params) > 64 {
			t.Fatalf("accepted %d params", len(spec.Params))
		}
		for k, v := range spec.Params {
			if k == "" || len(k) > 64 || len(v) > 1024 {
				t.Fatalf("accepted param %q=%q", k, v)
			}
		}
		// A valid spec must have a stable id.
		if id := jobs.IDForKey(spec.Endpoint); len(id) != 16 {
			t.Fatalf("id %q", id)
		}
	})
}

// FuzzCheckpointLogOpen: any byte sequence on disk opens without panic,
// yields a structurally sound restore — a face-closed chromatic complex
// with a canonical view behind every label — and the opened log accepts
// and round-trips new appends. The JSON records of a release before the
// record codec are seeds too: each must end the log.
func FuzzCheckpointLogOpen(f *testing.F) {
	rank := store.EncodeFrame([]byte("\x02\x01h\x01\x03"))
	jsonRank := store.EncodeFrame([]byte(`{"t":"rank","hash":"h","dim":1,"rank":3}`))
	shards := store.EncodeFrame([]byte(`{"t":"shards","total":2,"done":[0],"verts":[{"p":0,"l":"(0:a)"}],"simps":[[0]]}`))
	mystery := store.EncodeFrame([]byte(`{"t":"mystery"}`))
	// After a rank record, each JSON record ends the log: open keeps the
	// rank and cuts the file there.
	for _, seed := range [][]byte{jsonRank, shards, mystery} {
		path := filepath.Join(f.TempDir(), "json.ckpt")
		if err := os.WriteFile(path, append(append([]byte{}, rank...), seed...), 0o644); err != nil {
			f.Fatal(err)
		}
		log, err := jobs.OpenCheckpointLog(path)
		if err != nil {
			f.Fatal(err)
		}
		ranks := log.KnownRanks("h")
		if err := log.Close(); err != nil {
			f.Fatal(err)
		}
		if fi, err := os.Stat(path); err != nil || fi.Size() != int64(len(rank)) || len(ranks) != 1 || ranks[1] != 3 {
			f.Fatalf("rank record then %q: ranks %v, log %v (%v), want the rank record alone", seed[48:], ranks, fi, err)
		}
	}
	f.Add([]byte{})
	f.Add(rank)
	f.Add(jsonRank)
	f.Add(append(append([]byte{}, rank...), shards...))
	f.Add(append(append([]byte{}, rank...), rank[:20]...)) // torn tail
	f.Add([]byte("garbage that is not a frame at all"))
	f.Add(mystery)
	f.Add(store.EncodeFrame([]byte(`not json`)))
	// Real shard records: the sorted JSON encoder's golden log, a
	// one-record log from the record codec, its golden log, and a chain of
	// records for the 4 shards the target restores.
	golden, err := os.ReadFile("testdata/iis-n2-r2-sorted.ckpt")
	if err != nil {
		f.Fatal(err)
	}
	f.Add(golden)
	f.Add(flushedLog(f, 4, []int{1, 3}, buildResult(f, "model=iis&n=2&r=1")))
	tail, err := os.ReadFile("testdata/iis-n2-r2-tail.ckpt")
	if err != nil {
		f.Fatal(err)
	}
	f.Add(tail)
	f.Add(chainedLog(f, 4))
	f.Fuzz(func(t *testing.T, data []byte) {
		path := filepath.Join(t.TempDir(), "fuzz.ckpt")
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		log, err := jobs.OpenCheckpointLog(path)
		if err != nil {
			t.Fatalf("open rejected mutilated log instead of truncating: %v", err)
		}
		done, partial, err := log.Restore(4)
		if err != nil {
			t.Fatalf("restore: %v", err)
		}
		if done != nil && len(done) != 4 {
			t.Fatalf("restore shape: %d entries for 4 shards", len(done))
		}
		if (done == nil) != (partial == nil) {
			t.Fatal("restore returned done xor partial")
		}
		if partial != nil {
			checkSound(t, partial)
		}
		// Whatever was salvaged, the log must still accept appends...
		if err := log.PutRank("fuzz", 2, 7); err != nil {
			t.Fatalf("append after salvage: %v", err)
		}
		if err := log.Close(); err != nil {
			t.Fatal(err)
		}
		// ...and those appends survive a reopen.
		log2, err := jobs.OpenCheckpointLog(path)
		if err != nil {
			t.Fatalf("reopen: %v", err)
		}
		defer log2.Close()
		if got := log2.KnownRanks("fuzz"); got[2] != 7 {
			t.Fatalf("appended rank lost across reopen: %v", got)
		}
	})
}

// TestCheckpointLogMutilation mirrors the store's framing-corruption
// table on the append-only log: each damage mode must truncate the log to
// its valid prefix — keeping every record before the damage, dropping
// everything after — and never fail the open or corrupt a restore.
func TestCheckpointLogMutilation(t *testing.T) {
	// Build a pristine log of three rank records and capture the frame
	// boundaries as it grows.
	build := filepath.Join(t.TempDir(), "pristine.ckpt")
	log, err := jobs.OpenCheckpointLog(build)
	if err != nil {
		t.Fatal(err)
	}
	var offsets []int64 // offsets[i] = end of record i
	for d := 1; d <= 3; d++ {
		if err := log.PutRank("h", d, 10+d); err != nil {
			t.Fatal(err)
		}
		fi, err := os.Stat(build)
		if err != nil {
			t.Fatal(err)
		}
		offsets = append(offsets, fi.Size())
	}
	// A fourth record, a shard batch, goes through the record decoder on
	// every restore below.
	delta := buildResult(t, "model=iis&n=2&r=1")
	if _, _, err := log.Restore(1); err != nil {
		t.Fatal(err)
	}
	if err := log.Flush([]int{0}, delta); err != nil {
		t.Fatal(err)
	}
	if err := log.Close(); err != nil {
		t.Fatal(err)
	}
	pristine, err := os.ReadFile(build)
	if err != nil {
		t.Fatal(err)
	}
	rec2 := offsets[0] // start of record 2: every in-place damage targets it

	cases := []struct {
		name      string
		mutate    func([]byte) []byte
		wantRanks int  // surviving rank records
		wantShard bool // the shard record survives
	}{
		{"torn header", func(b []byte) []byte { return b[:rec2+20] }, 1, false},
		{"torn payload", func(b []byte) []byte { return b[:offsets[1]-3] }, 1, false},
		{"flipped magic", func(b []byte) []byte { b[rec2] ^= 0xff; return b }, 1, false},
		{"flipped checksum", func(b []byte) []byte { b[rec2+20] ^= 0x01; return b }, 1, false},
		{"flipped payload byte", func(b []byte) []byte { b[rec2+50] ^= 0x01; return b }, 1, false},
		{"huge length", func(b []byte) []byte { b[rec2+14] = 0xff; return b }, 1, false},
		{"torn shard record", func(b []byte) []byte { return b[:len(b)-3] }, 3, false},
		{"garbage tail", func(b []byte) []byte { return append(b, "EXTRA"...) }, 3, true},
		{"empty file", func(b []byte) []byte { return nil }, 0, false},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			path := filepath.Join(t.TempDir(), "mutilated.ckpt")
			if err := os.WriteFile(path, tc.mutate(append([]byte{}, pristine...)), 0o644); err != nil {
				t.Fatal(err)
			}
			log, err := jobs.OpenCheckpointLog(path)
			if err != nil {
				t.Fatalf("open: %v", err)
			}
			defer log.Close()
			ranks := log.KnownRanks("h")
			if len(ranks) != tc.wantRanks {
				t.Fatalf("survived ranks = %v, want %d records", ranks, tc.wantRanks)
			}
			for d, r := range ranks {
				if r != 10+d {
					t.Fatalf("rank[%d] = %d, want %d", d, r, 10+d)
				}
			}
			done, partial, err := log.Restore(1)
			if err != nil {
				t.Fatal(err)
			}
			if got := done != nil; got != tc.wantShard {
				t.Fatalf("shard record survived = %v, want %v", got, tc.wantShard)
			}
			if tc.wantShard && partial.Complex.CanonicalHash() != delta.Complex.CanonicalHash() {
				t.Fatal("surviving shard record restores a different complex")
			}
			// The damage is amputated: the file is now exactly the valid
			// prefix plus nothing, so appends extend a clean log.
			if err := log.PutRank("h", 9, 99); err != nil {
				t.Fatal(err)
			}
			log.Close()
			log2, err := jobs.OpenCheckpointLog(path)
			if err != nil {
				t.Fatal(err)
			}
			defer log2.Close()
			if got := log2.KnownRanks("h"); got[9] != 99 || len(got) != tc.wantRanks+1 {
				t.Fatalf("post-repair append: %v", got)
			}
		})
	}
}

// chainedLog returns the bytes of a checkpoint log holding one record per
// shard for the first total shards of IIS n=2 r=2, each extending the
// result the previous ones flushed, as a build's log of total shards.
func chainedLog(tb testing.TB, total int) []byte {
	tb.Helper()
	inst, input := buildQuery(tb, "model=iis&n=2&r=2")
	plan, err := roundop.PlanShards(inst.Operator(), input, inst.R)
	if err != nil {
		tb.Fatal(err)
	}
	path := filepath.Join(tb.TempDir(), "chain.ckpt")
	log, err := jobs.OpenCheckpointLog(path)
	if err != nil {
		tb.Fatal(err)
	}
	if _, _, err := log.Restore(total); err != nil {
		tb.Fatal(err)
	}
	res := pc.NewResult()
	for s := 0; s < total; s++ {
		if err := plan.RunShard(res, s); err != nil {
			tb.Fatal(err)
		}
		if err := log.Flush([]int{s}, res); err != nil {
			tb.Fatal(err)
		}
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

// flushedLog returns the bytes of a fresh checkpoint log holding one
// shard record: delta flushed as the given shards of a total-shard build.
func flushedLog(tb testing.TB, total int, shards []int, delta *pc.Result) []byte {
	tb.Helper()
	path := filepath.Join(tb.TempDir(), "seed.ckpt")
	log, err := jobs.OpenCheckpointLog(path)
	if err != nil {
		tb.Fatal(err)
	}
	if _, _, err := log.Restore(total); err != nil {
		tb.Fatal(err)
	}
	if err := log.Flush(shards, delta); err != nil {
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
