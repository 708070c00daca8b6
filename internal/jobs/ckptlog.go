package jobs

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"os"
	"sync"
	"sync/atomic"

	"pseudosphere/internal/pc"
	"pseudosphere/internal/store"
)

// CheckpointLog is a job's append-only progress log: a sequence of
// store-framed records persisting construction shards (the
// roundop.Checkpointer seam) and homology boundary ranks (the
// homology.Engine resume seam). Records are self-validating frames, so a
// SIGKILL mid-append leaves a torn tail that the next open detects and
// truncates — the log never resumes from wrong bytes, only from a valid
// prefix (possibly empty, which is a restart from zero).
//
// Shard records form a chain. Each is a pc record (pc.AppendRecord) of
// what the build's result gained since the previous one, framed with the
// build's shard count, so the log grows by what each Flush added, not by
// the complex. Restore applies them in order to one result, which the
// build then continues into. The first shard record that fails validation
// or names another shard count ends the replay, and Restore truncates the
// log there, so later appends extend the chain it rebuilt. A rank record
// holds one boundary rank: the complex's canonical hash, the dimension
// and the rank, each varint-coded.
//
// Open ends the log at the first frame that is neither a shard nor a
// rank record, or at a rank record that does not parse, as at a torn
// frame. So a log of JSON records, which releases before the record codec
// wrote, opens empty and its job recomputes; a log of shard records
// followed by JSON rank records keeps its chain and loses the ranks, so
// only homology reruns.
//
// One writer goroutine per log writes the frames. Flush encodes its record
// on the caller and queues it, blocking only while queueDepth records wait;
// the writer writes what is queued in order and syncs once per group of up
// to queueDepth records. A write or sync error is sticky: every later
// Flush, PutRank and Close returns it. PutRank returns once its record is
// durable, and Close drains the queue. A SIGKILL can therefore lose the
// records still queued or in the writer's hand, at most 2·queueDepth of
// them, besides a torn last frame.
type CheckpointLog struct {
	path string
	f    *os.File // written only by the writer goroutine

	// Loaded at open, consumed by Restore/KnownRanks.
	shards []shardRec
	ranks  map[string]map[int]int // complex hash → dimension → rank

	// Set by Restore, advanced by Flush: the build's result and how much
	// of it the chain already holds.
	restored   bool
	shardTotal int
	res        *pc.Result
	mark       pc.Mark
	buf        []byte // Flush's encoding scratch; queued frames never alias it

	mu      sync.Mutex // guards closed, and senders.Add against Close
	closed  bool
	senders sync.WaitGroup // enqueues in flight, which Close waits out
	queue   chan write
	exited  chan struct{}
	failed  atomic.Pointer[error] // the writer's first error, sticky
}

// queueDepth bounds the records waiting for the writer and the records it
// writes per sync. It is a constant, not a knob: with FlushEvery shards
// per record it caps what a SIGKILL can lose beyond the builder's own
// unflushed shards.
const queueDepth = 4

// The tags that open a record's payload.
const (
	tagTail = 0x01 // a shard record
	tagRank = 0x02 // a rank record
)

// write is one request to the writer goroutine: append frame, or, when
// frame is nil, cut the file to trunc bytes. done, when set, receives the
// outcome once the request's group is synced.
type write struct {
	frame []byte
	trunc int64
	done  chan error
}

// shardRec is one shard record loaded at open: its payload after the
// tag, and the file offset its frame starts at.
type shardRec struct {
	off  int64
	tail []byte
}

// OpenCheckpointLog opens (creating if absent) the log at path, loading
// every valid record and truncating any torn or corrupt tail, and starts
// its writer goroutine. Records after the first damaged frame are
// discarded: the log is a prefix log, and a valid prefix is always a safe
// resume point.
func OpenCheckpointLog(path string) (*CheckpointLog, error) {
	c := &CheckpointLog{path: path, ranks: make(map[string]map[int]int)}
	raw, err := os.ReadFile(path)
	if err != nil && !os.IsNotExist(err) {
		return nil, fmt.Errorf("jobs: read checkpoint log: %w", err)
	}
	valid := 0
	for valid < len(raw) {
		payload, rest, ok := store.NextFrame(raw[valid:])
		if !ok || !c.load(int64(valid), payload) {
			break
		}
		valid = len(raw) - len(rest)
	}
	if valid < len(raw) {
		if err := os.Truncate(path, int64(valid)); err != nil {
			return nil, fmt.Errorf("jobs: truncate torn checkpoint log: %w", err)
		}
	}
	f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, fmt.Errorf("jobs: open checkpoint log: %w", err)
	}
	c.f = f
	c.queue = make(chan write, queueDepth)
	c.exited = make(chan struct{})
	go c.writer()
	return c, nil
}

// load files one checksummed payload found at offset off, reporting false
// for a payload that is not a record of this format, which ends the log.
func (c *CheckpointLog) load(off int64, payload []byte) bool {
	if len(payload) == 0 {
		return false
	}
	switch payload[0] {
	case tagTail:
		c.shards = append(c.shards, shardRec{off: off, tail: payload[1:]})
		return true
	case tagRank:
		hash, dim, rank, ok := decodeRank(payload[1:])
		if ok {
			if c.ranks[hash] == nil {
				c.ranks[hash] = make(map[int]int)
			}
			c.ranks[hash][dim] = rank
		}
		return ok
	}
	return false
}

// decodeRank parses a rank record's body: uvarint(len(hash)), the hash,
// uvarint(dim) and uvarint(rank), with nothing after.
func decodeRank(b []byte) (hash string, dim, rank int, ok bool) {
	n, k := binary.Uvarint(b)
	if k <= 0 || n > uint64(len(b)-k) {
		return "", 0, 0, false
	}
	hash, b = string(b[k:k+int(n)]), b[k+int(n):]
	d, k := binary.Uvarint(b)
	if k <= 0 {
		return "", 0, 0, false
	}
	r, j := binary.Uvarint(b[k:])
	if j <= 0 || k+j != len(b) || d > math.MaxInt || r > math.MaxInt {
		return "", 0, 0, false
	}
	return hash, int(d), int(r), true
}

// Close drains the queue, stops the writer and closes the file. It
// returns the writer's sticky error, if any.
func (c *CheckpointLog) Close() error {
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return nil
	}
	c.closed = true
	c.mu.Unlock()
	c.senders.Wait()
	close(c.queue)
	<-c.exited
	err := c.f.Close()
	if werr := c.err(); werr != nil {
		return werr
	}
	return err
}

// err returns the writer's sticky error.
func (c *CheckpointLog) err() error {
	if p := c.failed.Load(); p != nil {
		return *p
	}
	return nil
}

// enqueue hands w to the writer, blocking while the queue is full. The
// send cannot block for good: the writer drains the queue until Close,
// which first waits for every enqueue in flight.
func (c *CheckpointLog) enqueue(w write) error {
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return fmt.Errorf("jobs: checkpoint log %s is closed", c.path)
	}
	c.senders.Add(1)
	c.mu.Unlock()
	defer c.senders.Done()
	if err := c.err(); err != nil {
		return err
	}
	c.queue <- w
	return nil
}

// writer is the log's only file writer: it takes what is queued, up to
// queueDepth requests, carries them out in order, syncs once, and reports
// the outcome to the requests that wait for it. After the first error it
// writes nothing more.
func (c *CheckpointLog) writer() {
	defer close(c.exited)
	group := make([]write, 0, queueDepth)
	for w := range c.queue {
		group = append(group[:0], w)
	more:
		for len(group) < queueDepth {
			select {
			case w, ok := <-c.queue:
				if !ok {
					break more
				}
				group = append(group, w)
			default:
				break more
			}
		}
		err := c.err()
		if err == nil {
			if err = c.writeGroup(group); err != nil {
				c.failed.CompareAndSwap(nil, &err)
			}
		}
		for _, w := range group {
			if w.done != nil {
				w.done <- err
			}
		}
	}
}

// writeGroup carries out one group of requests and syncs the file.
func (c *CheckpointLog) writeGroup(group []write) error {
	for _, w := range group {
		if w.frame == nil {
			if err := c.f.Truncate(w.trunc); err != nil {
				return fmt.Errorf("jobs: truncate checkpoint log: %w", err)
			}
			continue
		}
		if _, err := c.f.Write(w.frame); err != nil {
			return fmt.Errorf("jobs: append checkpoint: %w", err)
		}
	}
	if err := c.f.Sync(); err != nil {
		return fmt.Errorf("jobs: sync checkpoint: %w", err)
	}
	return nil
}

// durable queues w and waits until the writer has synced it.
func (c *CheckpointLog) durable(w write) error {
	w.done = make(chan error, 1)
	if err := c.enqueue(w); err != nil {
		return err
	}
	return <-w.done
}

// Restore implements roundop.Checkpointer: it applies the shard records
// loaded at open, in order, to one result and returns it with the shards
// they completed. Each record must name totalShards and pass
// pc.ApplyRecord's checks. The first record that fails ends the replay,
// and the log is truncated there (dropping every later record) before
// Restore returns, so no record after a gap is ever trusted and the next
// Flush extends exactly the returned result. A failed record is never
// partly applied, so the result is always a face-closed subcomplex of the
// build. Restore consumes the loaded records: call it once, before any
// Flush.
func (c *CheckpointLog) Restore(totalShards int) ([]bool, *pc.Result, error) {
	if c.restored {
		return nil, nil, errors.New("jobs: checkpoint log restored twice")
	}
	c.restored = true
	c.shardTotal = totalShards
	recs := c.shards
	c.shards = nil
	var done []bool
	res := pc.NewResult()
	for _, rec := range recs {
		ran, err := replay(rec, totalShards, res)
		if err != nil {
			if err := c.durable(write{trunc: rec.off}); err != nil {
				return nil, nil, err
			}
			break
		}
		if done == nil {
			done = make([]bool, totalShards)
		}
		for _, s := range ran {
			done[s] = true
		}
	}
	if done == nil {
		return nil, nil, nil
	}
	c.res, c.mark = res, res.Mark()
	return done, res, nil
}

// replay applies one shard record to res and returns the shards it lists.
// On error res is unchanged.
func replay(rec shardRec, totalShards int, res *pc.Result) ([]int, error) {
	total, n := binary.Uvarint(rec.tail)
	if n <= 0 || total != uint64(totalShards) {
		return nil, fmt.Errorf("jobs: shard record is not for %d shards", totalShards)
	}
	return res.ApplyRecord(rec.tail[n:], totalShards)
}

// Flush implements roundop.Checkpointer: it encodes what res gained since
// the previous Flush (or Restore) as one tail record and queues it for the
// writer. res must be the build's result: the one Restore returned, or,
// after a fresh start, the one every Flush is handed. Flush returns the
// writer's sticky error, if an earlier record failed to reach the disk.
func (c *CheckpointLog) Flush(done []int, res *pc.Result) error {
	if !c.restored {
		return errors.New("jobs: checkpoint flushed before Restore")
	}
	if c.res == nil {
		c.res = res
	}
	m := res.Mark()
	if res != c.res || m.Verts < c.mark.Verts || m.Entries < c.mark.Entries {
		return errors.New("jobs: checkpoint flushed with a result the log does not extend")
	}
	c.buf = append(c.buf[:0], tagTail)
	c.buf = binary.AppendUvarint(c.buf, uint64(c.shardTotal))
	c.buf = pc.AppendRecord(c.buf, done, res, c.mark)
	c.mark = m
	return c.enqueue(write{frame: store.EncodeFrame(c.buf)})
}

// KnownRanks returns the boundary ranks recorded for the complex with
// the given canonical hash (nil if none) — the known-map for
// homology.Engine.BettiZ2CtxResume.
func (c *CheckpointLog) KnownRanks(hash string) map[int]int {
	loaded := c.ranks[hash]
	if len(loaded) == 0 {
		return nil
	}
	out := make(map[int]int, len(loaded))
	for d, r := range loaded {
		out[d] = r
	}
	return out
}

// PutRank persists one fully reduced boundary rank and returns once it is
// durable. Safe for concurrent use, though the homology engine emits a
// complex's ranks serially, one per dimension, once its reduction ends.
func (c *CheckpointLog) PutRank(hash string, dim, rank int) error {
	payload := binary.AppendUvarint([]byte{tagRank}, uint64(len(hash)))
	payload = append(payload, hash...)
	payload = binary.AppendUvarint(payload, uint64(dim))
	payload = binary.AppendUvarint(payload, uint64(rank))
	return c.durable(write{frame: store.EncodeFrame(payload)})
}
