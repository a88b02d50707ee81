// Package journal is the durable append-only job log behind sinetd's
// crash safety. The serving tier logs every job lifecycle transition —
// submit, start, checkpoint, retry, done, fail, cancel — as one framed
// record, fsynced in batches, so a daemon killed mid-campaign can replay
// the log on restart, re-admit every incomplete job, and resume each one
// from its last checkpoint.
//
// The on-disk format is a sequence of frames:
//
//	[4-byte LE payload length][4-byte LE CRC-32 (IEEE) of payload][payload]
//
// where the payload is the record's canonical JSON. A crash can tear at
// most the final frame (appends are sequential), so replay accepts the
// longest valid prefix and truncates the rest: a short header, a short
// payload, a CRC mismatch, an oversized length, or undecodable JSON all
// end the replay at the last good frame boundary. Truncation-on-open
// restores the invariant that the file is a clean sequence of frames, so
// the journal can keep appending after any crash.
package journal

import (
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"sync"
)

// Op is a job lifecycle transition type.
type Op string

// Journal record operations.
const (
	// OpSubmit admits a job: it carries the job ID, content key and the
	// normalized spec JSON needed to re-run the job after a crash.
	OpSubmit Op = "submit"
	// OpStart marks a worker picking the job up (one per attempt).
	OpStart Op = "start"
	// OpCheckpoint persists one completed work unit's snapshot: the
	// campaign phase, the unit's index within it, and its serialized
	// output. Replay folds these into a resume checkpoint.
	OpCheckpoint Op = "checkpoint"
	// OpRetry records a failed attempt that will be re-queued: the job
	// stays incomplete on replay.
	OpRetry Op = "retry"
	// OpDone, OpFail and OpCancel are terminal: replay drops the job.
	OpDone   Op = "done"
	OpFail   Op = "fail"
	OpCancel Op = "cancel"
)

// Terminal reports whether the op ends a job's lifecycle.
func (o Op) Terminal() bool { return o == OpDone || o == OpFail || o == OpCancel }

// Record is one journal entry. Fields irrelevant to an op stay zero and
// are omitted from the encoding.
type Record struct {
	Op    Op     `json:"op"`
	JobID string `json:"job"`
	// Key is the job's content address (submit records).
	Key string `json:"key,omitempty"`
	// Spec is the normalized JobSpec JSON (submit records).
	Spec json.RawMessage `json:"spec,omitempty"`
	// Attempt numbers the execution attempt (start/retry records).
	Attempt int `json:"attempt,omitempty"`
	// Phase, Index, Total and Unit carry one checkpoint snapshot.
	Phase string `json:"phase,omitempty"`
	Index int    `json:"index,omitempty"`
	Total int    `json:"total,omitempty"`
	Unit  []byte `json:"unit,omitempty"`
	// Err is the failure message (retry/fail records).
	Err string `json:"err,omitempty"`
	// Trace is the job's W3C traceparent (submit records, when tracing is
	// on), so a replayed job rejoins the trace it was born under and the
	// resumed attempts land on the same distributed timeline.
	Trace string `json:"trace,omitempty"`
}

// Hook observes and may veto journal I/O; the chaos harness injects write
// errors and slow-I/O stalls through it. It is called with "write" before
// each frame write and "sync" before each fsync; a non-nil return aborts
// that operation with the hook's error. A nil Hook is a no-op.
type Hook func(op string) error

// maxPayload bounds one record's payload so a corrupt length field cannot
// make replay attempt a multi-gigabyte allocation. Checkpoint units are
// work-unit-sized (well under this), not campaign-sized.
const maxPayload = 64 << 20

const frameHeaderLen = 8

// ErrClosed is returned by Append after Close.
var ErrClosed = errors.New("journal: closed")

// Journal is an open, appendable job log. Append and AppendBehind are
// safe for concurrent use. Writers share batched fsyncs (group commit):
// every Append returns only after its record is synced, but concurrent
// appenders coalesce into a single Sync call. AppendBehind returns once
// its frame is written; the next Append's sync, or Close, covers it,
// because a sync covers every frame written before it.
type Journal struct {
	hook Hook

	mu     sync.Mutex
	cond   *sync.Cond
	f      *os.File
	closed bool

	writeSeq uint64 // frames written
	syncSeq  uint64 // frames known durable
	syncing  bool   // an fsync is in flight
}

// Options parameterize Open.
type Options struct {
	// Hook, when non-nil, intercepts writes and syncs (chaos injection).
	Hook Hook
}

// Open opens (creating if needed) the journal at path, replays its
// records, truncates any torn tail, and returns the journal positioned
// for appending plus the replayed records. The returned records are the
// longest valid prefix of the file; anything after the first damaged
// frame is discarded both from the result and from the file itself.
func Open(path string, opts Options) (*Journal, []Record, error) {
	f, err := os.OpenFile(path, os.O_RDWR|os.O_CREATE, 0o644)
	if err != nil {
		return nil, nil, fmt.Errorf("journal: open %s: %w", path, err)
	}
	recs, good, err := ReadRecords(f)
	if err != nil {
		f.Close()
		return nil, nil, fmt.Errorf("journal: replay %s: %w", path, err)
	}
	info, err := f.Stat()
	if err != nil {
		f.Close()
		return nil, nil, fmt.Errorf("journal: stat %s: %w", path, err)
	}
	if info.Size() > good {
		// Torn or corrupt tail: drop it so the next append starts at a
		// clean frame boundary.
		if err := f.Truncate(good); err != nil {
			f.Close()
			return nil, nil, fmt.Errorf("journal: truncate torn tail of %s: %w", path, err)
		}
		if err := f.Sync(); err != nil {
			f.Close()
			return nil, nil, fmt.Errorf("journal: sync after truncate %s: %w", path, err)
		}
	}
	if _, err := f.Seek(good, io.SeekStart); err != nil {
		f.Close()
		return nil, nil, fmt.Errorf("journal: seek %s: %w", path, err)
	}
	j := &Journal{hook: opts.Hook, f: f}
	j.cond = sync.NewCond(&j.mu)
	return j, recs, nil
}

// ReadRecords decodes the longest valid frame prefix of r, returning the
// records, the byte offset where the valid prefix ends, and any error
// reading the underlying stream (decode failures are not errors: they end
// the prefix). It never panics on arbitrary input — the FuzzJournalReplay
// contract.
func ReadRecords(r io.Reader) ([]Record, int64, error) {
	var recs []Record
	var good int64
	header := make([]byte, frameHeaderLen)
	for {
		if _, err := io.ReadFull(r, header); err != nil {
			if errors.Is(err, io.EOF) || errors.Is(err, io.ErrUnexpectedEOF) {
				return recs, good, nil // clean end or torn header
			}
			return recs, good, err
		}
		n := binary.LittleEndian.Uint32(header[:4])
		crc := binary.LittleEndian.Uint32(header[4:])
		if n == 0 || n > maxPayload {
			return recs, good, nil // corrupt length: end of valid prefix
		}
		payload := make([]byte, n)
		if _, err := io.ReadFull(r, payload); err != nil {
			if errors.Is(err, io.EOF) || errors.Is(err, io.ErrUnexpectedEOF) {
				return recs, good, nil // torn payload
			}
			return recs, good, err
		}
		if crc32.ChecksumIEEE(payload) != crc {
			return recs, good, nil // torn or bit-rotted frame
		}
		var rec Record
		if err := json.Unmarshal(payload, &rec); err != nil {
			return recs, good, nil // valid frame, undecodable record
		}
		recs = append(recs, rec)
		good += int64(frameHeaderLen) + int64(n)
	}
}

// AppendFrame encodes rec into the journal's frame format, for building
// test fixtures and fuzz corpora with the same encoder Append uses.
func AppendFrame(dst []byte, rec Record) ([]byte, error) {
	payload, err := json.Marshal(rec)
	if err != nil {
		return dst, fmt.Errorf("journal: encode record: %w", err)
	}
	var header [frameHeaderLen]byte
	binary.LittleEndian.PutUint32(header[:4], uint32(len(payload)))
	binary.LittleEndian.PutUint32(header[4:], crc32.ChecksumIEEE(payload))
	dst = append(dst, header[:]...)
	return append(dst, payload...), nil
}

// Append writes one record and returns once it is durable. Concurrent
// appenders share fsyncs: the caller whose record is already covered by
// an in-flight or completed sync never issues its own.
func (j *Journal) Append(rec Record) error {
	seq, err := j.write(rec)
	if err != nil {
		return err
	}
	return j.syncTo(seq)
}

// AppendBehind writes one record and returns without waiting for an
// fsync (write-behind). The frame is durable once a later Append returns
// or Close syncs the file. Until then a killed process keeps it (the
// kernel holds the write), but a power loss may drop it along with every
// frame written after the last sync; replay cannot tell such a loss from
// the records never having been written.
func (j *Journal) AppendBehind(rec Record) error {
	_, err := j.write(rec)
	return err
}

// write appends rec's frame to the file and returns its sequence number.
func (j *Journal) write(rec Record) (uint64, error) {
	frame, err := AppendFrame(nil, rec)
	if err != nil {
		return 0, err
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.closed {
		return 0, ErrClosed
	}
	if j.hook != nil {
		if err := j.hook("write"); err != nil {
			return 0, fmt.Errorf("journal: write: %w", err)
		}
	}
	if _, err := j.f.Write(frame); err != nil {
		return 0, fmt.Errorf("journal: write: %w", err)
	}
	j.writeSeq++
	return j.writeSeq, nil
}

// syncTo blocks until frames up to seq are durable, performing (or
// waiting out) the group-commit fsync that covers them.
func (j *Journal) syncTo(seq uint64) error {
	j.mu.Lock()
	defer j.mu.Unlock()
	for j.syncSeq < seq {
		if j.closed {
			return ErrClosed
		}
		if j.syncing {
			// Another appender's fsync is in flight; it may already cover
			// seq. Wait for it and re-check.
			j.cond.Wait()
			continue
		}
		j.syncing = true
		target := j.writeSeq
		var err error
		if j.hook != nil {
			err = j.hook("sync")
		}
		if err == nil {
			j.mu.Unlock()
			err = j.f.Sync()
			j.mu.Lock()
		}
		j.syncing = false
		if err == nil {
			j.syncSeq = target
		}
		j.cond.Broadcast()
		if err != nil {
			return fmt.Errorf("journal: sync: %w", err)
		}
	}
	return nil
}

// Close syncs and closes the journal. It is idempotent: second and later
// calls return nil without touching the file.
func (j *Journal) Close() error {
	j.mu.Lock()
	if j.closed {
		j.mu.Unlock()
		return nil
	}
	j.closed = true
	f := j.f
	j.cond.Broadcast()
	j.mu.Unlock()
	syncErr := f.Sync()
	closeErr := f.Close()
	if syncErr != nil {
		return fmt.Errorf("journal: close sync: %w", syncErr)
	}
	return closeErr
}
