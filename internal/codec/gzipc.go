package codec

import (
	"bytes"
	"compress/gzip"
	"fmt"
	"io"
	"sync"
)

func init() { Register(gzipCodec{}) }

// gzipCodec wraps stdlib gzip. Its output is a bare gzip stream with no
// extra framing, byte-identical to what the column store wrote before the
// codec seam existed, which is what keeps old directories readable and
// new gzip-written files readable by old binaries.
type gzipCodec struct{}

func (gzipCodec) Name() string { return "gzip" }
func (gzipCodec) ID() byte     { return IDGzip }

// GzipLevelValid reports whether level is accepted by gzip.NewWriterLevel.
func GzipLevelValid(level int) bool {
	return level >= gzip.HuffmanOnly && level <= gzip.BestCompression
}

// gzwPools pools one *gzip.Writer per compression level: Reset only
// restores the level the writer was created with, so levels cannot share
// a pool. Index is level-gzip.HuffmanOnly (HuffmanOnly is -2).
var gzwPools [gzip.BestCompression - gzip.HuffmanOnly + 1]sync.Pool

// GrabGzipWriter returns a pooled gzip writer reset to w at the given
// level. Callers must pass the writer to ReleaseGzipWriter after Close.
// Exported because the column store also gzips its manifest.
func GrabGzipWriter(w io.Writer, level int) (*gzip.Writer, error) {
	if !GzipLevelValid(level) {
		return nil, fmt.Errorf("codec: invalid gzip level %d", level)
	}
	pool := &gzwPools[level-gzip.HuffmanOnly]
	if zw, ok := pool.Get().(*gzip.Writer); ok {
		zw.Reset(w)
		return zw, nil
	}
	zw, err := gzip.NewWriterLevel(w, level)
	if err != nil {
		return nil, err
	}
	return zw, nil
}

// ReleaseGzipWriter returns a writer obtained from GrabGzipWriter to its
// level's pool.
func ReleaseGzipWriter(zw *gzip.Writer, level int) {
	if !GzipLevelValid(level) {
		return
	}
	gzwPools[level-gzip.HuffmanOnly].Put(zw)
}

// gzrPool pools gzip readers across decompressions; Reset re-arms them
// for a new stream.
var gzrPool sync.Pool

// GrabGzipReader returns a pooled gzip reader reset to r.
func GrabGzipReader(r io.Reader) (*gzip.Reader, error) {
	if zr, ok := gzrPool.Get().(*gzip.Reader); ok {
		if err := zr.Reset(r); err != nil {
			gzrPool.Put(zr)
			return nil, err
		}
		return zr, nil
	}
	return gzip.NewReader(r)
}

// ReleaseGzipReader returns a reader obtained from GrabGzipReader to the
// pool.
func ReleaseGzipReader(zr *gzip.Reader) { gzrPool.Put(zr) }

// sliceWriter adapts append-to-slice to io.Writer so the pooled streaming
// gzip writer can produce the same bytes it streamed to files before.
type sliceWriter struct{ b []byte }

func (w *sliceWriter) Write(p []byte) (int, error) {
	w.b = append(w.b, p...)
	return len(p), nil
}

func (gzipCodec) Compress(dst, src []byte, level int) ([]byte, error) {
	sw := &sliceWriter{b: dst}
	zw, err := GrabGzipWriter(sw, level)
	if err != nil {
		return dst, err
	}
	if _, err := zw.Write(src); err != nil {
		ReleaseGzipWriter(zw, level)
		return dst, err
	}
	if err := zw.Close(); err != nil {
		ReleaseGzipWriter(zw, level)
		return dst, err
	}
	ReleaseGzipWriter(zw, level)
	return sw.b, nil
}

func (gzipCodec) Decompress(dst, src []byte) ([]byte, error) {
	zr, err := GrabGzipReader(bytes.NewReader(src))
	if err != nil {
		return dst, err
	}
	for {
		if len(dst) == cap(dst) {
			dst = append(dst, 0)[:len(dst)]
		}
		n, err := zr.Read(dst[len(dst):cap(dst)])
		dst = dst[:len(dst)+n]
		if err == io.EOF {
			break
		}
		if err != nil {
			ReleaseGzipReader(zr)
			return dst, err
		}
	}
	err = zr.Close()
	ReleaseGzipReader(zr)
	return dst, err
}
