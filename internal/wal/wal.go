// Package wal implements the write-ahead log behind the streaming ingest
// path: an append-only file of CRC-framed records that is fsynced before a
// batch is acknowledged, replayed on open, and rewritten (shrunk to the
// un-flushed tail) after the column store makes the drained prefix durable.
//
// The contract the engine builds on:
//
//   - Append returns only after the record's bytes and the fsync hit the
//     file, so an acknowledged batch survives any later crash.
//   - Open decodes the existing file and truncates a torn tail — the
//     debris a crash mid-append leaves — back to the last whole record.
//     Everything before the tear is returned intact; nothing after a valid
//     frame is ever invented.
//   - Rewrite atomically replaces the log's contents (durable.Publish),
//     which is how a flush discards records whose rows now live in
//     durable partitions.
//
// File layout:
//
//	8 B   header  "MQWL" 0x01 0x00 0x00 0x00
//	per record:
//	  u32 LE  length of payload
//	  u32 LE  CRC32-C of payload
//	  length B payload (opaque to this package)
//
// Writes go through faultfs so the crash matrix can tear an append at an
// arbitrary byte; reads use plain os calls, mirroring the column store.
package wal

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"sync"

	"mistique/internal/durable"
	"mistique/internal/faultfs"
)

const (
	magic   = "MQWL"
	version = 1
)

var header = binary.LittleEndian.AppendUint32([]byte(magic), version)

// maxRecordBytes bounds one record (64 MiB): a length field beyond it is
// treated as a torn/garbage tail, keeping hostile files from ballooning
// allocation during replay.
const maxRecordBytes = 64 << 20

// Decode parses a log image, returning the whole records and the byte
// length of the valid prefix (header included). A short, torn or
// CRC-mismatched tail simply ends the valid prefix — records before it are
// returned. A file too short to hold the header decodes as empty (validLen
// 0). Torn tails are not corruption, but a file that is not a WAL at all
// (durable.ErrCorrupt) or one a newer binary wrote (durable.ErrUnsupported)
// must not be clobbered.
func Decode(data []byte) (records [][]byte, validLen int64, err error) {
	if len(data) < len(header) {
		return nil, 0, nil
	}
	_, r, err := durable.OpenUnsealed(data, magic, 4, version)
	if err != nil {
		return nil, 0, err
	}
	for {
		validLen = int64(r.Offset())
		if r.Remaining() < 8 {
			return records, validLen, nil
		}
		n, crc := r.U32(), r.U32()
		if n > maxRecordBytes || int(n) > r.Remaining() {
			return records, validLen, nil
		}
		payload := r.Bytes(int(n))
		if crc32.Checksum(payload, durable.Castagnoli) != crc {
			return records, validLen, nil
		}
		records = append(records, payload)
	}
}

// Log is one open write-ahead log. Safe for concurrent use.
type Log struct {
	fs   faultfs.FS
	path string

	mu   sync.Mutex
	f    faultfs.File
	size int64
	// appends/syncs count the durability work done, for the engine's
	// mistique_wal_* metrics (read via Stats).
	appends int64
	syncs   int64
}

// OpenResult reports what Open found.
type OpenResult struct {
	// Records are the whole records replayed from the existing file, in
	// append order. The byte slices alias one buffer; callers consume them
	// before the next Append.
	Records [][]byte
	// TornBytes is how many trailing bytes were discarded as a torn tail
	// (0 on a clean file).
	TornBytes int64
}

// Open opens (creating if absent) the log at path, replaying its records
// and truncating any torn tail. fs nil uses the real filesystem.
func Open(path string, fs faultfs.FS) (*Log, OpenResult, error) {
	if fs == nil {
		fs = faultfs.OS()
	}
	var res OpenResult
	data, err := os.ReadFile(path)
	if err != nil && !errors.Is(err, os.ErrNotExist) {
		return nil, res, fmt.Errorf("wal: read %s: %w", path, err)
	}
	records, validLen, err := Decode(data)
	if err != nil {
		return nil, res, fmt.Errorf("wal: %s: %w", path, err)
	}
	res.Records = records
	if int64(len(data)) > validLen {
		res.TornBytes = int64(len(data)) - validLen
	}
	l := &Log{fs: fs, path: path}
	if validLen == 0 {
		// Empty or headerless: start a fresh log (atomically, so a crash
		// here leaves either the old file or a whole new one).
		if err := l.rewriteLocked(nil); err != nil {
			return nil, res, err
		}
	} else if res.TornBytes > 0 {
		// Shrink to the valid prefix via the same atomic publish; the torn
		// bytes never reappear after a crash mid-rewrite.
		if err := l.rewriteLocked(records); err != nil {
			return nil, res, err
		}
	} else {
		f, err := fs.OpenAppend(path)
		if err != nil {
			return nil, res, fmt.Errorf("wal: open %s: %w", path, err)
		}
		l.f, l.size = f, validLen
	}
	return l, res, nil
}

// writeFrame writes one record: the length|crc frame, then the payload.
func writeFrame(w io.Writer, p []byte) error {
	var frame [8]byte
	binary.LittleEndian.PutUint32(frame[:4], uint32(len(p)))
	binary.LittleEndian.PutUint32(frame[4:8], crc32.Checksum(p, durable.Castagnoli))
	if _, err := w.Write(frame[:]); err != nil {
		return err
	}
	_, err := w.Write(p)
	return err
}

// Append frames, writes and fsyncs one record; when it returns nil the
// record is durable.
func (l *Log) Append(payload []byte) error {
	return l.AppendBatch([][]byte{payload})
}

// AppendBatch appends several records under one fsync.
func (l *Log) AppendBatch(payloads [][]byte) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.f == nil {
		return fmt.Errorf("wal: %s is closed", l.path)
	}
	wrote := int64(0)
	for _, p := range payloads {
		if int64(len(p)) > maxRecordBytes {
			return fmt.Errorf("wal: record of %d bytes exceeds the %d-byte cap", len(p), maxRecordBytes)
		}
		if err := writeFrame(l.f, p); err != nil {
			return fmt.Errorf("wal: append %s: %w", l.path, err)
		}
		wrote += 8 + int64(len(p))
	}
	if err := l.f.Sync(); err != nil {
		return fmt.Errorf("wal: sync %s: %w", l.path, err)
	}
	l.size += wrote
	l.appends += int64(len(payloads))
	l.syncs++
	return nil
}

// Rewrite atomically replaces the log's contents with the given records —
// the flush path's truncation: records whose rows reached durable
// partitions are dropped, the still-pending tail is kept.
func (l *Log) Rewrite(payloads [][]byte) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.rewriteLocked(payloads)
}

func (l *Log) rewriteLocked(payloads [][]byte) error {
	size := int64(len(header))
	_, err := durable.Publish(l.fs, l.path, func(w io.Writer) error {
		if _, err := w.Write(header); err != nil {
			return err
		}
		for _, p := range payloads {
			if err := writeFrame(w, p); err != nil {
				return err
			}
			size += 8 + int64(len(p))
		}
		return nil
	})
	if err != nil {
		return fmt.Errorf("wal: rewrite %s: %w", l.path, err)
	}
	// Swap the append handle to the new file.
	if l.f != nil {
		l.f.Close()
	}
	nf, err := l.fs.OpenAppend(l.path)
	if err != nil {
		l.f = nil
		return fmt.Errorf("wal: reopen %s: %w", l.path, err)
	}
	l.f, l.size = nf, size
	l.syncs++
	return nil
}

// Size returns the current file size in bytes (header included).
func (l *Log) Size() int64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.size
}

// Stats returns cumulative append and fsync counts.
func (l *Log) Stats() (appends, syncs int64) {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.appends, l.syncs
}

// Path returns the log's file path.
func (l *Log) Path() string { return l.path }

// Close releases the append handle. The file remains for the next Open.
func (l *Log) Close() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.f == nil {
		return nil
	}
	err := l.f.Close()
	l.f = nil
	return err
}
