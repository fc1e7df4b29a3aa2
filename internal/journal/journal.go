// Package journal makes the MDM's meta-data directory crash-safe. The
// directory — coverage registrations, store addresses, privacy-shield
// rules — is the Napster-style heart of the federation (paper §4), yet it
// is pure main-memory state; this package gives it the journaling and
// checkpointing discipline of the main-memory directory services the paper
// leans on (the HLR's "main memory relational database", §3.1.2).
//
// The design is a classic write-ahead log plus checkpoint:
//
//   - every meta-data mutation appends one CRC-framed record to an
//     append-only log (wal.log) and is acknowledged only after the record
//     is durably on disk; concurrent appenders share fsyncs (group
//     commit), so a registration burst costs one disk flush, not N,
//   - a periodic snapshot (snapshot.json, written atomically via rename)
//     captures the whole directory in the same wire shapes the mirror
//     protocol already replays (RegisterRequest / PutRuleRequest), after
//     which the log is compacted to zero,
//   - recovery loads the snapshot, replays the log over it, and truncates
//     any torn tail left by a crash mid-append — a partially written
//     record is indistinguishable from one never acknowledged, so
//     dropping it is correct.
//
// Replayed operations are idempotent at the directory layer (registering
// twice is a no-op, unregistering a missing entry is ignored), which makes
// the snapshot/log overlap window around compaction harmless.
package journal

import (
	"bufio"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"

	"gupster/internal/wire"
)

// Record operations. One record is one meta-data mutation in its wire
// shape, so replay reuses the exact decode path the server already has.
const (
	OpRegister   = "register"
	OpUnregister = "unregister"
	OpPutRule    = "put-rule"
	OpDeleteRule = "delete-rule"
)

// Record is one journaled mutation. Exactly one of the payload fields is
// set, matching Op. Term is the leader term that produced the record when
// the journal backs a replicated MDM (0 on a standalone node); replication
// uses it for log matching, replay ignores it.
type Record struct {
	Op         string                  `json:"op"`
	Term       uint64                  `json:"term,omitempty"`
	Register   *wire.RegisterRequest   `json:"register,omitempty"`
	Unregister *wire.UnregisterRequest `json:"unregister,omitempty"`
	PutRule    *wire.PutRuleRequest    `json:"put_rule,omitempty"`
	DeleteRule *wire.DeleteRuleRequest `json:"delete_rule,omitempty"`
}

// Snapshot is a checkpoint of the whole directory, in the same shapes the
// mirror protocol replays to late-joining peers. Index and Term locate the
// checkpoint in the replicated log: the snapshot covers every record up to
// and including Index (both 0 on a standalone node).
type Snapshot struct {
	Coverage []wire.RegisterRequest `json:"coverage"`
	Shields  []wire.PutRuleRequest  `json:"shields"`
	Index    uint64                 `json:"index,omitempty"`
	Term     uint64                 `json:"snap_term,omitempty"`
}

// Options tune a journal.
type Options struct {
	// NoSync skips fsync on append (benchmarks, tests on tmpfs). Records
	// still reach the OS page cache, so an orderly process exit loses
	// nothing — only a machine crash does.
	NoSync bool
	// CompactEvery triggers a snapshot-and-truncate after this many
	// appended records; 0 means DefaultCompactEvery, negative disables
	// automatic compaction.
	CompactEvery int
}

// DefaultCompactEvery bounds log growth: directories mutate rarely, so a
// thousand records is hours of churn yet replays in microseconds.
const DefaultCompactEvery = 1024

// Stats counts journal activity, exported through the MDM's stats surface.
type Stats struct {
	Appends     atomic.Uint64
	Syncs       atomic.Uint64
	Compactions atomic.Uint64
	// RecoveredSnapshot and RecoveredRecords describe the last Open:
	// directory entries loaded from the snapshot and records replayed
	// from the log.
	RecoveredSnapshot atomic.Uint64
	RecoveredRecords  atomic.Uint64
	// TornBytes is how much torn tail the last Open truncated.
	TornBytes atomic.Uint64
}

// Recovered is what Open found on disk: apply Snapshot first, then the
// Records in order.
type Recovered struct {
	Snapshot *Snapshot
	Records  []Record
	// TornBytes counts bytes truncated from the log's torn tail (a crash
	// mid-append); 0 on a clean log.
	TornBytes int64
}

// Journal errors.
var (
	ErrClosed = errors.New("journal: closed")
	// ErrRecordTooLarge rejects absurd records at append time and marks
	// in-log length corruption at replay time.
	ErrRecordTooLarge = errors.New("journal: record exceeds maximum size")
)

// maxRecord bounds one serialized record; directory mutations are tiny,
// so anything near this is corruption.
const maxRecord = 4 << 20

const (
	walName  = "wal.log"
	snapName = "snapshot.json"
)

// frame header: 4-byte big-endian payload length, 4-byte CRC32-Castagnoli
// of the payload.
const headerSize = 8

var crcTable = crc32.MakeTable(crc32.Castagnoli)

// Journal is an open write-ahead log. All methods are safe for concurrent
// use.
type Journal struct {
	dir  string
	opts Options

	mu       sync.Mutex
	work     *sync.Cond // wakes the flusher
	done     *sync.Cond // wakes appenders waiting for durability
	f        *os.File
	w        *bufio.Writer
	pending  uint64 // records written to the buffer
	synced   uint64 // records durably flushed (+synced) to disk
	appended int    // records since the last compaction
	// Replicated-log view of the WAL (see replicate.go): base is the
	// index of the last record folded into the snapshot, baseTerm its
	// term, and recs the in-memory copy of the live log, so record
	// base+1+i is recs[i]. Bounded by CompactEvery on durable MDMs.
	base     uint64
	baseTerm uint64
	recs     []Record
	syncErr  error // sticky: a failed flush/fsync poisons the journal
	closed   bool
	flusherG sync.WaitGroup

	// snapFn supplies the directory state for compaction; nil disables
	// automatic and manual compaction.
	snapMu sync.Mutex
	snapFn func() Snapshot

	stats Stats
}

// Open creates or recovers a journal in dir. The returned Recovered holds
// whatever durable state was found (nil snapshot and no records on first
// boot); the caller applies it before appending new mutations.
func Open(dir string, opts Options) (*Journal, *Recovered, error) {
	if opts.CompactEvery == 0 {
		opts.CompactEvery = DefaultCompactEvery
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, nil, fmt.Errorf("journal: %w", err)
	}
	j := &Journal{dir: dir, opts: opts}
	j.work = sync.NewCond(&j.mu)
	j.done = sync.NewCond(&j.mu)

	rec := &Recovered{}
	if snap, err := readSnapshot(filepath.Join(dir, snapName)); err != nil {
		return nil, nil, err
	} else if snap != nil {
		rec.Snapshot = snap
		j.base = snap.Index
		j.baseTerm = snap.Term
		j.stats.RecoveredSnapshot.Store(uint64(len(snap.Coverage) + len(snap.Shields)))
	}

	f, err := os.OpenFile(filepath.Join(dir, walName), os.O_CREATE|os.O_RDWR, 0o644)
	if err != nil {
		return nil, nil, fmt.Errorf("journal: %w", err)
	}
	records, good, size, err := scanWAL(f)
	if err != nil {
		f.Close()
		return nil, nil, err
	}
	if good < size {
		// Torn tail: a crash interrupted an append that was never
		// acknowledged. Truncate to the last whole record so the log is
		// append-clean again.
		if err := f.Truncate(good); err != nil {
			f.Close()
			return nil, nil, fmt.Errorf("journal: truncate torn tail: %w", err)
		}
		rec.TornBytes = size - good
		j.stats.TornBytes.Store(uint64(rec.TornBytes))
	}
	if _, err := f.Seek(good, io.SeekStart); err != nil {
		f.Close()
		return nil, nil, fmt.Errorf("journal: %w", err)
	}
	rec.Records = records
	j.recs = records
	j.stats.RecoveredRecords.Store(uint64(len(records)))
	// Recovered records count against the compaction budget so a crash
	// loop cannot grow the log without bound.
	j.appended = len(records)

	j.f = f
	j.w = bufio.NewWriter(f)
	j.flusherG.Add(1)
	go j.flusher()
	return j, rec, nil
}

// SetSnapshotFunc installs the callback that captures the directory for
// compaction — typically after recovery has been applied, so the first
// snapshot is complete. The callback must not append to the journal.
func (j *Journal) SetSnapshotFunc(fn func() Snapshot) {
	j.snapMu.Lock()
	j.snapFn = fn
	j.snapMu.Unlock()
}

// Stats exposes the journal's counters.
func (j *Journal) Stats() *Stats { return &j.stats }

// Dir returns the journal directory.
func (j *Journal) Dir() string { return j.dir }

// Append durably logs one record: it returns only after the record (and,
// thanks to group commit, any records buffered alongside it) has been
// flushed and fsynced. Append may trigger a compaction once the log
// passes the CompactEvery threshold.
func (j *Journal) Append(r Record) error {
	_, err := j.AppendBatch([]Record{r})
	return err
}

// AppendIndexed is Append returning the record's global index, assigned
// atomically with the append — the hook replication uses so concurrent
// appenders each learn exactly where their record landed.
func (j *Journal) AppendIndexed(r Record) (uint64, error) {
	return j.AppendBatch([]Record{r})
}

// AppendBatch durably logs records as one unit, sharing a single flush
// and fsync across the whole batch (plus whatever concurrent appenders
// piled into the same group commit). It returns the global index of the
// last record appended. Followers use it to land a shipped entry batch
// at one fsync instead of one per record.
func (j *Journal) AppendBatch(records []Record) (uint64, error) {
	if len(records) == 0 {
		j.mu.Lock()
		defer j.mu.Unlock()
		return j.base + uint64(len(j.recs)), nil
	}
	type framed struct {
		hdr     [headerSize]byte
		payload []byte
	}
	frames := make([]framed, len(records))
	for i, r := range records {
		payload, err := json.Marshal(r)
		if err != nil {
			return 0, fmt.Errorf("journal: marshal: %w", err)
		}
		if len(payload) > maxRecord {
			return 0, ErrRecordTooLarge
		}
		frames[i].payload = payload
		binary.BigEndian.PutUint32(frames[i].hdr[0:4], uint32(len(payload)))
		binary.BigEndian.PutUint32(frames[i].hdr[4:8], crc32.Checksum(payload, crcTable))
	}

	j.mu.Lock()
	if j.closed {
		j.mu.Unlock()
		return 0, ErrClosed
	}
	if j.syncErr != nil {
		err := j.syncErr
		j.mu.Unlock()
		return 0, err
	}
	for i := range frames {
		if _, err := j.w.Write(frames[i].hdr[:]); err != nil {
			j.syncErr = err
			break
		}
		if _, err := j.w.Write(frames[i].payload); err != nil {
			j.syncErr = err
			break
		}
	}
	if j.syncErr != nil {
		err := j.syncErr
		j.mu.Unlock()
		return 0, err
	}
	j.pending += uint64(len(records))
	seq := j.pending
	j.appended += len(records)
	j.recs = append(j.recs, records...)
	last := j.base + uint64(len(j.recs))
	needCompact := j.opts.CompactEvery > 0 && j.appended >= j.opts.CompactEvery
	j.work.Signal()
	// Wait for the flusher to carry this batch (and its group) to disk.
	for j.synced < seq && j.syncErr == nil {
		j.done.Wait()
	}
	err := j.syncErr
	j.mu.Unlock()
	if err != nil {
		return 0, err
	}
	j.stats.Appends.Add(uint64(len(records)))
	if needCompact {
		// Best-effort: a failed compaction leaves the log long but valid.
		_ = j.Compact()
	}
	return last, nil
}

// flusher is the single goroutine that moves buffered records to disk.
// The buffer flush happens under the lock (it shares the bufio.Writer
// with appenders); the fsync happens outside it, so appends arriving
// during a sync pile into the next batch — that is the group commit.
func (j *Journal) flusher() {
	defer j.flusherG.Done()
	j.mu.Lock()
	for {
		for j.pending == j.synced && !j.closed {
			j.work.Wait()
		}
		if j.pending == j.synced && j.closed {
			j.mu.Unlock()
			return
		}
		target := j.pending
		err := j.w.Flush()
		if err == nil && !j.opts.NoSync {
			f := j.f
			j.mu.Unlock()
			err = f.Sync()
			j.mu.Lock()
			j.stats.Syncs.Add(1)
		}
		j.synced = target
		if err != nil && j.syncErr == nil {
			j.syncErr = err
		}
		j.done.Broadcast()
	}
}

// Compact checkpoints the directory and truncates the log: it captures a
// snapshot via the installed callback, writes it atomically (temp file,
// fsync, rename, directory fsync), then resets the log to empty. A crash
// between the rename and the truncate leaves snapshot+old-log on disk,
// which replays to the same state because directory mutations are
// idempotent. No-op without a snapshot callback.
func (j *Journal) Compact() error {
	j.snapMu.Lock()
	fn := j.snapFn
	j.snapMu.Unlock()
	if fn == nil {
		return nil
	}

	j.mu.Lock()
	defer j.mu.Unlock()
	if j.closed {
		return ErrClosed
	}
	// Drain in-flight appends so the log and the snapshot agree on "now".
	for j.synced < j.pending && j.syncErr == nil {
		j.done.Wait()
	}
	if j.syncErr != nil {
		return j.syncErr
	}
	// Capture under j.mu: mutations applied to the directory but not yet
	// journaled are ahead of the log; including them in the snapshot is
	// safe (their append lands in the fresh log and replays idempotently).
	snap := fn()
	snap.Index = j.base + uint64(len(j.recs))
	snap.Term = j.lastTermLocked()
	if err := writeSnapshot(j.dir, &snap, j.opts.NoSync); err != nil {
		return err
	}
	if err := j.f.Truncate(0); err != nil {
		return fmt.Errorf("journal: truncate: %w", err)
	}
	if _, err := j.f.Seek(0, io.SeekStart); err != nil {
		return fmt.Errorf("journal: %w", err)
	}
	j.w.Reset(j.f)
	if !j.opts.NoSync {
		if err := j.f.Sync(); err != nil {
			return fmt.Errorf("journal: %w", err)
		}
	}
	j.base = snap.Index
	j.baseTerm = snap.Term
	j.recs = nil
	j.appended = 0
	j.stats.Compactions.Add(1)
	return nil
}

// Close flushes, syncs, and closes the log. Further appends fail with
// ErrClosed.
func (j *Journal) Close() error {
	j.mu.Lock()
	if j.closed {
		j.mu.Unlock()
		return nil
	}
	j.closed = true
	j.work.Signal()
	j.mu.Unlock()
	j.flusherG.Wait()
	j.mu.Lock()
	err := j.syncErr
	j.mu.Unlock()
	if cerr := j.f.Close(); err == nil {
		err = cerr
	}
	return err
}

// scanWAL reads every whole record from the log, returning the records,
// the offset of the last whole record's end (the "good" prefix), and the
// file size. Corruption — short header, absurd length, CRC mismatch,
// undecodable JSON — ends the scan at the last good offset: everything
// after a torn record is unreachable garbage by construction (appends are
// sequential), so it is truncated, never skipped.
func scanWAL(f *os.File) (records []Record, good, size int64, err error) {
	info, err := f.Stat()
	if err != nil {
		return nil, 0, 0, fmt.Errorf("journal: %w", err)
	}
	size = info.Size()
	r := bufio.NewReader(io.NewSectionReader(f, 0, size))
	var hdr [headerSize]byte
	for {
		if _, err := io.ReadFull(r, hdr[:]); err != nil {
			return records, good, size, nil // clean EOF or torn header
		}
		n := binary.BigEndian.Uint32(hdr[0:4])
		if n == 0 || n > maxRecord {
			return records, good, size, nil // length corruption
		}
		payload := make([]byte, n)
		if _, err := io.ReadFull(r, payload); err != nil {
			return records, good, size, nil // torn payload
		}
		if crc32.Checksum(payload, crcTable) != binary.BigEndian.Uint32(hdr[4:8]) {
			return records, good, size, nil // bit rot or torn write
		}
		var rec Record
		if err := json.Unmarshal(payload, &rec); err != nil {
			return records, good, size, nil
		}
		records = append(records, rec)
		good += int64(headerSize) + int64(n)
	}
}

// readSnapshot loads the checkpoint, if any.
func readSnapshot(path string) (*Snapshot, error) {
	data, err := os.ReadFile(path)
	if errors.Is(err, os.ErrNotExist) {
		return nil, nil
	}
	if err != nil {
		return nil, fmt.Errorf("journal: read snapshot: %w", err)
	}
	var s Snapshot
	if err := json.Unmarshal(data, &s); err != nil {
		return nil, fmt.Errorf("journal: snapshot corrupt: %w", err)
	}
	return &s, nil
}

// writeSnapshot persists the checkpoint atomically: temp file, fsync,
// rename over the old snapshot, fsync the directory so the rename itself
// is durable.
func writeSnapshot(dir string, s *Snapshot, noSync bool) error {
	data, err := json.Marshal(s)
	if err != nil {
		return fmt.Errorf("journal: marshal snapshot: %w", err)
	}
	tmp, err := os.CreateTemp(dir, snapName+".tmp-")
	if err != nil {
		return fmt.Errorf("journal: %w", err)
	}
	defer os.Remove(tmp.Name()) // no-op after a successful rename
	if _, err := tmp.Write(data); err != nil {
		tmp.Close()
		return fmt.Errorf("journal: write snapshot: %w", err)
	}
	if !noSync {
		if err := tmp.Sync(); err != nil {
			tmp.Close()
			return fmt.Errorf("journal: sync snapshot: %w", err)
		}
	}
	if err := tmp.Close(); err != nil {
		return fmt.Errorf("journal: %w", err)
	}
	if err := os.Rename(tmp.Name(), filepath.Join(dir, snapName)); err != nil {
		return fmt.Errorf("journal: install snapshot: %w", err)
	}
	if noSync {
		return nil
	}
	d, err := os.Open(dir)
	if err != nil {
		return fmt.Errorf("journal: %w", err)
	}
	defer d.Close()
	if err := d.Sync(); err != nil {
		return fmt.Errorf("journal: sync dir: %w", err)
	}
	return nil
}
