// Package durable holds the decisions every on-disk artifact shares: how
// a file becomes durable (Publish), how its bytes are checksummed (Seal,
// Unseal, Castagnoli), how crash debris is collected (SweepTemps), how a
// bad file is set aside (Quarantine) and how one is read back (Open, Reader,
// ErrCorrupt, ErrUnsupported in reader.go). The split with the formats'
// owners: an owner knows its magic, its versions and its field layout and
// says so by the order of its Reader calls; this package knows the frame
// (seal, magic, version), the two ways a read may fail, and that no length
// is believed before it has been checked against the bytes that remain.
// It never learns a layout.
//
// Writes go through faultfs so one crash matrix covers the protocol for
// every artifact kind; reads stay on plain os calls, like the rest of the
// store.
package durable

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"strings"

	"mistique/internal/faultfs"
)

// Castagnoli is the CRC-32C table (hardware-accelerated on amd64/arm64)
// behind every checksum the store writes.
var Castagnoli = crc32.MakeTable(crc32.Castagnoli)

// ErrDirSync marks a Publish whose rename succeeded but whose directory
// fsync did not: the new file is in place and complete, only the
// durability of its name is unconfirmed. Callers that fsync the same
// directory again right after (colstore's partition → manifest order) may
// treat it as success.
var ErrDirSync = errors.New("durable: published, but directory sync failed")

// Publish atomically and durably replaces path with whatever write emits:
// unique temp file beside it (<base>.tmp*), write, fsync, close, rename
// over path, fsync the directory. A concurrent reader sees the old file or
// the new one, never a prefix; so does a crash at any point. On failure
// before the rename the temp file is removed (a crashed process leaves it
// for SweepTemps). fsyncs counts the file and directory syncs that
// succeeded, error or not.
func Publish(fs faultfs.FS, path string, write func(io.Writer) error) (fsyncs int, err error) {
	dir := filepath.Dir(path)
	f, err := fs.CreateTemp(dir, filepath.Base(path)+".tmp*")
	if err != nil {
		return 0, fmt.Errorf("durable: create temp for %s: %w", path, err)
	}
	tmp := f.Name()
	err = write(f)
	if err == nil {
		// The write barrier: the data must be on the platter before the
		// rename publishes the name.
		if err = f.Sync(); err == nil {
			fsyncs++
		}
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		fs.Remove(tmp) // best effort
		return fsyncs, fmt.Errorf("durable: write %s: %w", tmp, err)
	}
	if err := fs.Rename(tmp, path); err != nil {
		fs.Remove(tmp)
		return fsyncs, fmt.Errorf("durable: publish %s: %w", path, err)
	}
	if err := fs.SyncDir(dir); err != nil {
		return fsyncs, fmt.Errorf("%w: %s: %w", ErrDirSync, dir, err)
	}
	return fsyncs + 1, nil
}

// Seal appends the CRC-32C of buf as a 4-byte little-endian footer.
func Seal(buf []byte) []byte {
	return binary.LittleEndian.AppendUint32(buf, crc32.Checksum(buf, Castagnoli))
}

// Unseal splits a sealed image into its body and reports whether the
// footer matches. A short or mismatched image returns ok false.
func Unseal(raw []byte) (body []byte, ok bool) {
	if len(raw) < 4 {
		return nil, false
	}
	body = raw[:len(raw)-4]
	return body, crc32.Checksum(body, Castagnoli) == binary.LittleEndian.Uint32(raw[len(raw)-4:])
}

// SweepTemps removes the temp files a crashed Publish left in dir and
// returns their names. Any regular file whose name contains ".tmp" counts:
// that covers <base>.tmp* and the seg-*.tmp / index-*.tmp / objects-*.tmp
// names older binaries wrote. Run it at open, before any publish starts. A
// missing or unreadable directory sweeps nothing.
func SweepTemps(fs faultfs.FS, dir string) []string {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil
	}
	var removed []string
	for _, e := range entries {
		if e.IsDir() || !strings.Contains(e.Name(), ".tmp") {
			continue
		}
		if err := fs.Remove(filepath.Join(dir, e.Name())); err == nil || errors.Is(err, os.ErrNotExist) {
			removed = append(removed, e.Name())
		}
	}
	return removed
}

// Quarantine moves a file that failed validation aside to path+".corrupt"
// and fsyncs the directory, so it is kept as evidence but never re-read.
// An error means the bad file may still be in place.
func Quarantine(fs faultfs.FS, path string) error {
	if err := fs.Rename(path, path+".corrupt"); err != nil {
		return fmt.Errorf("durable: quarantine %s: %w", path, err)
	}
	if err := fs.SyncDir(filepath.Dir(path)); err != nil {
		return fmt.Errorf("durable: quarantine %s: %w", path, err)
	}
	return nil
}
