package cas

import (
	"bytes"
	"compress/flate"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"sort"
	"sync"

	"mistique/internal/durable"
	"mistique/internal/faultfs"
)

const (
	objMagic   = "MQCO"
	objVersion = 1
	objName    = "OBJECTS.bin"

	maxObjectName = 1 << 12

	// objFlagCompressed marks a delta object whose stored residual is
	// deflate-compressed (see object.comp).
	objFlagCompressed uint16 = 1 << 0
)

// Config holds the object-store knobs.
type Config struct {
	// Chunker sets the content-defined-chunking window; zero fields
	// take the package defaults.
	Chunker ChunkerConfig
	// MaxDepth bounds delta chains: an object at depth MaxDepth is
	// stored full even if PutDelta is asked for a delta. Zero means
	// DefaultMaxDepth.
	MaxDepth int
	// FS is the write-side filesystem, swappable for fault injection.
	FS faultfs.FS
}

// DefaultMaxDepth bounds delta chains when Config.MaxDepth is zero.
// Reading a depth-d object touches d+1 generations, so this is a read
// amplification bound as much as a durability one.
const DefaultMaxDepth = 4

// ObjectInfo describes one stored object (for instance one model
// version's serialized weights).
type ObjectInfo struct {
	Name     string
	Size     int64  // logical payload size
	Chunks   int    // chunks in this object's recipe
	Depth    int    // delta-chain depth; 0 = stored full
	Base     string // parent object when delta-encoded
	CRC      uint32 // crc32c of the fully reconstructed payload
	NewBytes int64  // payload bytes not already present in the table at Put time
}

type object struct {
	chunks   []Key
	size     int64
	depth    int
	base     string
	crc      uint32
	newBytes int64
	// comp marks a delta whose stored residual is deflate-compressed.
	// An XOR residual between adjacent checkpoints is zero everywhere
	// the versions agree, and a zero run defeats content-defined
	// chunking (no content, no cut points, no boundary resync across
	// epochs). Deflating the residual first collapses those runs so the
	// table stores kilobytes per generation instead of re-storing
	// misaligned mostly-zero chunks.
	comp bool
}

// Store layers named, optionally delta-encoded objects over a chunk
// Table. A delta object's chunks encode the XOR residual against its
// base; reconstruction walks the chain down to a full object and is
// verified against a whole-object CRC, so a flipped bit in any
// generation surfaces as durable.ErrCorrupt rather than wrong bytes.
type Store struct {
	dir string
	cfg Config
	t   *Table

	mu      sync.Mutex
	objects map[string]*object
	deps    map[string]int // base name -> number of direct dependents
	dirty   bool
}

// OpenStore opens (or creates) an object store in dir. Chunk refcounts
// are re-derived from the object manifest, so the manifest and index
// never need to agree transactionally: chunks published without a
// referencing object are unreachable and reclaimed by the next GC.
func OpenStore(dir string, cfg Config) (*Store, error) {
	if cfg.FS == nil {
		cfg.FS = faultfs.OS()
	}
	if cfg.MaxDepth == 0 {
		cfg.MaxDepth = DefaultMaxDepth
	}
	t, err := OpenTable(dir, cfg.FS)
	if err != nil {
		return nil, err
	}
	s := &Store{dir: dir, cfg: cfg, t: t, objects: map[string]*object{}, deps: map[string]int{}}
	raw, rerr := os.ReadFile(filepath.Join(dir, objName))
	if rerr == nil {
		objs, perr := parseObjects(raw)
		if perr != nil {
			return nil, fmt.Errorf("cas: %s: %w", objName, perr)
		}
		for name, o := range objs {
			for _, k := range o.chunks {
				if aerr := s.t.AddRef(k); aerr != nil {
					// An object referencing an unpublished chunk means the
					// manifest outran the index, which the publish order
					// forbids — treat as corruption.
					return nil, fmt.Errorf("cas: object %q references missing chunk: %w", name, durable.ErrCorrupt)
				}
			}
		}
		s.objects = objs
		for _, o := range objs {
			if o.base != "" {
				s.deps[o.base]++
			}
		}
	} else if !os.IsNotExist(rerr) {
		return nil, rerr
	}
	return s, nil
}

// Table exposes the underlying chunk table (read-mostly: stats and
// direct chunk access for tests).
func (s *Store) Table() *Table { return s.t }

// Put stores data as a full (non-delta) object named name, replacing
// any previous version of the name.
func (s *Store) Put(name string, data []byte) (ObjectInfo, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if err := checkName(name); err != nil {
		return ObjectInfo{}, err
	}
	o := s.ingestLocked(data, 0, "", crc32.Checksum(data, durable.Castagnoli))
	s.replaceLocked(name, o)
	return s.infoLocked(name), nil
}

// PutDelta stores data as an XOR residual against the named base
// object. It falls back to a full store when the base is missing or
// its chain is already MaxDepth deep, so callers can use it
// unconditionally for "this version descends from that one".
func (s *Store) PutDelta(name, base string, data []byte) (ObjectInfo, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if err := checkName(name); err != nil {
		return ObjectInfo{}, err
	}
	crc := crc32.Checksum(data, durable.Castagnoli)
	bo, ok := s.objects[base]
	if name == base {
		ok = false
	}
	if !ok || bo.depth+1 > s.cfg.MaxDepth {
		o := s.ingestLocked(data, 0, "", crc)
		s.replaceLocked(name, o)
		return s.infoLocked(name), nil
	}
	baseData, err := s.getLocked(base, 0)
	if err != nil {
		return ObjectInfo{}, err
	}
	residual := xorBytes(data, baseData)
	stored, comp := residual, false
	if packed := deflateBytes(residual); len(packed) < len(residual) {
		stored, comp = packed, true
	}
	o := s.ingestLocked(stored, bo.depth+1, base, crc)
	o.size = int64(len(data))
	o.comp = comp
	s.replaceLocked(name, o)
	return s.infoLocked(name), nil
}

// deflateBytes compresses b at the fastest deflate level. Residuals are
// dominated by zero runs, where any level wins by orders of magnitude.
func deflateBytes(b []byte) []byte {
	var buf bytes.Buffer
	w, err := flate.NewWriter(&buf, flate.BestSpeed)
	if err != nil {
		return b
	}
	if _, err := w.Write(b); err != nil || w.Close() != nil {
		return b
	}
	return buf.Bytes()
}

// inflateBytes decompresses a deflate stream that must expand to exactly
// want bytes (the residual is as long as the payload it encodes).
func inflateBytes(b []byte, want int64) ([]byte, error) {
	r := flate.NewReader(bytes.NewReader(b))
	defer r.Close()
	out := make([]byte, 0, want)
	buf := make([]byte, 32*1024)
	for {
		n, err := r.Read(buf)
		out = append(out, buf[:n]...)
		if int64(len(out)) > want {
			return nil, fmt.Errorf("%w: residual inflates past its object size", durable.ErrCorrupt)
		}
		if err == io.EOF {
			break
		}
		if err != nil {
			return nil, fmt.Errorf("%w: residual inflate: %v", durable.ErrCorrupt, err)
		}
	}
	if int64(len(out)) != want {
		return nil, fmt.Errorf("%w: residual inflates to %d bytes, want %d", durable.ErrCorrupt, len(out), want)
	}
	return out, nil
}

// ingestLocked chunks a payload into the table and builds the recipe.
func (s *Store) ingestLocked(payload []byte, depth int, base string, crc uint32) *object {
	o := &object{size: int64(len(payload)), depth: depth, base: base, crc: crc}
	for _, c := range Split(payload, s.cfg.Chunker) {
		if !s.t.Has(KeyOf(c)) {
			o.newBytes += int64(len(c))
		}
		o.chunks = append(o.chunks, s.t.Put(c))
	}
	return o
}

func (s *Store) replaceLocked(name string, o *object) {
	s.dropLocked(name)
	s.objects[name] = o
	if o.base != "" {
		s.deps[o.base]++
	}
	s.dirty = true
}

func (s *Store) dropLocked(name string) {
	old, ok := s.objects[name]
	if !ok {
		return
	}
	for _, k := range old.chunks {
		s.t.Release(k)
	}
	if old.base != "" {
		if s.deps[old.base]--; s.deps[old.base] <= 0 {
			delete(s.deps, old.base)
		}
	}
	delete(s.objects, name)
	s.dirty = true
}

// Delete removes an object. Objects that other deltas depend on are
// collapsed out of the chain first (dependents are rewritten one level
// shallower), so no dependent ever loses its base.
func (s *Store) Delete(name string) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, ok := s.objects[name]; !ok {
		return fmt.Errorf("%w: object %q", ErrNotFound, name)
	}
	if s.deps[name] > 0 {
		for dep, o := range s.objects {
			if o.base == name {
				if err := s.collapseLocked(dep); err != nil {
					return err
				}
			}
		}
	}
	s.dropLocked(name)
	return nil
}

// Get reconstructs the object's payload, walking the delta chain and
// verifying the whole-object CRC.
func (s *Store) Get(name string) ([]byte, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.getLocked(name, 0)
}

func (s *Store) getLocked(name string, hop int) ([]byte, error) {
	o, ok := s.objects[name]
	if !ok {
		return nil, fmt.Errorf("%w: object %q", ErrNotFound, name)
	}
	if hop > s.cfg.MaxDepth+1 {
		return nil, fmt.Errorf("%w: delta chain at %q exceeds max depth", durable.ErrCorrupt, name)
	}
	payload := make([]byte, 0, o.size)
	for _, k := range o.chunks {
		c, err := s.t.Get(k)
		if err != nil {
			return nil, fmt.Errorf("object %q: %w", name, err)
		}
		payload = append(payload, c...)
	}
	if o.base != "" {
		if o.comp {
			raw, err := inflateBytes(payload, o.size)
			if err != nil {
				return nil, fmt.Errorf("object %q: %w", name, err)
			}
			payload = raw
		}
		baseData, err := s.getLocked(o.base, hop+1)
		if err != nil {
			return nil, err
		}
		payload = xorBytes(payload, baseData)
	}
	return verifyPayload(payload, o.crc, name)
}

func verifyPayload(payload []byte, want uint32, name string) ([]byte, error) {
	if crc32.Checksum(payload, durable.Castagnoli) != want {
		return nil, fmt.Errorf("%w: object %q reconstruction crc mismatch", durable.ErrCorrupt, name)
	}
	return payload, nil
}

// xorBytes returns a XOR b over the common prefix with a's tail kept
// raw: applying it twice with the same b is the identity, so the same
// function both creates and applies residuals.
func xorBytes(a, b []byte) []byte {
	out := make([]byte, len(a))
	copy(out, a)
	for i := range min(len(a), len(b)) {
		out[i] ^= b[i]
	}
	return out
}

// Info returns the descriptor of one object.
func (s *Store) Info(name string) (ObjectInfo, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, ok := s.objects[name]; !ok {
		return ObjectInfo{}, false
	}
	return s.infoLocked(name), true
}

func (s *Store) infoLocked(name string) ObjectInfo {
	o := s.objects[name]
	return ObjectInfo{Name: name, Size: o.size, Chunks: len(o.chunks), Depth: o.depth, Base: o.base, CRC: o.crc, NewBytes: o.newBytes}
}

// Objects lists every stored object, sorted by name.
func (s *Store) Objects() []ObjectInfo {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]ObjectInfo, 0, len(s.objects))
	for name := range s.objects {
		out = append(out, s.infoLocked(name))
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// collapseLocked rewrites a delta object as a full object.
func (s *Store) collapseLocked(name string) error {
	payload, err := s.getLocked(name, 0)
	if err != nil {
		return err
	}
	o := s.ingestLocked(payload, 0, "", crc32.Checksum(payload, durable.Castagnoli))
	s.replaceLocked(name, o)
	return nil
}

// Compact collapses delta chains deeper than maxDepth (0 keeps the
// configured bound) and garbage-collects the chunk table. It persists
// the result, so a crash afterwards reopens in the compacted state.
func (s *Store) Compact(maxDepth int) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if maxDepth <= 0 {
		maxDepth = s.cfg.MaxDepth
	}
	var deep []string
	for name, o := range s.objects {
		if o.depth > maxDepth {
			deep = append(deep, name)
		}
	}
	sort.Strings(deep)
	for _, name := range deep {
		if err := s.collapseLocked(name); err != nil {
			return err
		}
	}
	if err := s.flushLocked(); err != nil {
		return err
	}
	_, _, err := s.t.GC()
	if err != nil {
		return err
	}
	// GC may have republished the index; keep the manifest fresh too.
	return s.flushLocked()
}

// Flush persists the chunk table (segments + index) and then the
// object manifest. Publish order matters: the manifest must only ever
// reference chunks that are already durable.
func (s *Store) Flush() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.flushLocked()
}

func (s *Store) flushLocked() error {
	if err := s.t.Flush(); err != nil {
		return err
	}
	if !s.dirty {
		return nil
	}
	_, err := durable.Publish(s.cfg.FS, filepath.Join(s.dir, objName), func(w io.Writer) error {
		_, err := w.Write(marshalObjects(s.objects))
		return err
	})
	if err != nil {
		return err
	}
	s.dirty = false
	return nil
}

func checkName(name string) error {
	if name == "" || len(name) > maxObjectName {
		return fmt.Errorf("cas: invalid object name %q", name)
	}
	return nil
}

func marshalObjects(objs map[string]*object) []byte {
	names := make([]string, 0, len(objs))
	for n := range objs {
		names = append(names, n)
	}
	sort.Strings(names)
	buf := []byte(objMagic)
	buf = binary.LittleEndian.AppendUint16(buf, objVersion)
	buf = binary.LittleEndian.AppendUint32(buf, uint32(len(names)))
	for _, n := range names {
		o := objs[n]
		buf = binary.LittleEndian.AppendUint16(buf, uint16(len(n)))
		buf = append(buf, n...)
		buf = binary.LittleEndian.AppendUint64(buf, uint64(o.size))
		buf = binary.LittleEndian.AppendUint32(buf, o.crc)
		buf = binary.LittleEndian.AppendUint16(buf, uint16(o.depth))
		var flags uint16
		if o.comp {
			flags |= objFlagCompressed
		}
		buf = binary.LittleEndian.AppendUint16(buf, flags)
		buf = binary.LittleEndian.AppendUint16(buf, uint16(len(o.base)))
		buf = append(buf, o.base...)
		buf = binary.LittleEndian.AppendUint64(buf, uint64(o.newBytes))
		buf = binary.LittleEndian.AppendUint32(buf, uint32(len(o.chunks)))
		for _, k := range o.chunks {
			buf = append(buf, k[:]...)
		}
	}
	return durable.Seal(buf)
}

// parseObjects decodes an object manifest. Pure and fuzz-friendly:
// hostile bytes yield durable.ErrCorrupt/ErrUnsupported, never a panic.
func parseObjects(raw []byte) (map[string]*object, error) {
	_, r, err := durable.Open(raw, objMagic, 2, objVersion)
	if err != nil {
		return nil, err
	}
	n := r.Fit(uint64(r.U32()), 32)
	objs := make(map[string]*object, n)
	for i := 0; i < n; i++ {
		name := string(r.Bytes(int(r.U16())))
		o := &object{size: int64(r.U64()), crc: r.U32(), depth: int(r.U16())}
		flags := r.U16()
		o.comp = flags&objFlagCompressed != 0
		o.base = string(r.Bytes(int(r.U16())))
		o.newBytes = int64(r.U64())
		o.chunks = make([]Key, r.Fit(uint64(r.U32()), 32))
		for j := range o.chunks {
			copy(o.chunks[j][:], r.Bytes(32))
		}
		if r.Err() != nil {
			break
		}
		switch _, dup := objs[name]; {
		case name == "" || len(name) > maxObjectName || len(o.base) > maxObjectName:
			r.Failf("bad name or base length")
		case flags&^objFlagCompressed != 0:
			r.Failf("object %q: unknown flags %#x", name, flags)
		case o.size < 0 || (o.depth == 0) != (o.base == ""):
			r.Failf("object %q: inconsistent depth/base", name)
		case o.comp && o.base == "":
			r.Failf("object %q: compressed residual without a base", name)
		case dup:
			r.Failf("duplicate object name %q", name)
		}
		objs[name] = o
	}
	if err := r.End(); err != nil {
		return nil, err
	}
	return objs, nil
}
