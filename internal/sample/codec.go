package sample

import (
	"encoding/binary"
	"math"

	"mistique/internal/durable"
)

// MQSM on-disk format (all integers uvarint unless noted, floats and
// fixed ints little-endian):
//
//	"MQSM" 0x01
//	fileKey  string   model "\x00" intermediate — identity, verified on load
//	Cap, StratumCap, MaxStrata
//	Seed, RNGState   u64 LE
//	Seen
//	C; C × column name
//	C × { Finite, NaN, PosInf, NegInf; Min, Max f32 bits }
//	k; k × RowID; k·C × f32
//	StratifyCol string; overflow byte
//	numStrata; each { Key f32 bits; Count; kS; kS × RowID; kS·C × f32 }
//	CRC32-C  u32 LE over everything above
//
// StratumCap through the strata belong to a stratified variant this
// package no longer builds. Encode writes them as every unstratified
// sample always had them (stratumCap, maxStrata, "", 0, no strata); Decode
// parses and drops them, so an older stratified file still serves its
// uniform reservoir.
const (
	magicMQSM   = "MQSM"
	versionMQSM = 1

	stratumCap = 1024
	maxStrata  = 64
)

// Ceilings on the fields nothing else bounds. Element counts need none:
// the Reader checks each against the bytes that remain.
const (
	maxSampleCap = 1 << 26
	maxStrataCap = 1 << 14
	maxKeyLen    = 1 << 17
	maxNameLen   = 1 << 12
)

// Encode serializes the sample with its identity into an MQSM image.
func Encode(model, interm string, s *Sample) []byte {
	c := len(s.Cols)
	buf := make([]byte, 0, 64+len(s.Data)*4+len(s.RowIDs)*2)
	buf = append(buf, magicMQSM...)
	buf = append(buf, versionMQSM)
	buf = appendString(buf, model+"\x00"+interm)
	buf = binary.AppendUvarint(buf, uint64(s.Cap))
	buf = binary.AppendUvarint(buf, stratumCap)
	buf = binary.AppendUvarint(buf, maxStrata)
	buf = binary.LittleEndian.AppendUint64(buf, s.Seed)
	buf = binary.LittleEndian.AppendUint64(buf, s.RNGState)
	buf = binary.AppendUvarint(buf, uint64(s.Seen))
	buf = binary.AppendUvarint(buf, uint64(c))
	for _, name := range s.Cols {
		buf = appendString(buf, name)
	}
	for _, st := range s.Stats {
		buf = binary.AppendUvarint(buf, uint64(st.Finite))
		buf = binary.AppendUvarint(buf, uint64(st.NaN))
		buf = binary.AppendUvarint(buf, uint64(st.PosInf))
		buf = binary.AppendUvarint(buf, uint64(st.NegInf))
		buf = binary.LittleEndian.AppendUint32(buf, math.Float32bits(st.Min))
		buf = binary.LittleEndian.AppendUint32(buf, math.Float32bits(st.Max))
	}
	buf = binary.AppendUvarint(buf, uint64(len(s.RowIDs)))
	for _, id := range s.RowIDs {
		buf = binary.AppendUvarint(buf, uint64(id))
	}
	buf = appendFloats(buf, s.Data)
	buf = append(buf, 0, 0, 0) // no stratify column, no overflow, no strata
	return durable.Seal(buf)
}

// Decode parses and validates an MQSM image, returning the sample and the
// model/intermediate identity it was written for. Errors wrap
// durable.ErrCorrupt or durable.ErrUnsupported.
func Decode(data []byte) (model, interm string, s *Sample, err error) {
	_, r, err := durable.Open(data, magicMQSM, 1, versionMQSM)
	if err != nil {
		return "", "", nil, err
	}
	fileKey := r.String(maxKeyLen)
	s = &Sample{}
	s.Cap = int(r.Uvarint(maxSampleCap))
	r.Uvarint(maxSampleCap) // StratumCap
	r.Uvarint(maxStrataCap) // MaxStrata
	s.Seed = r.U64()
	s.RNGState = r.U64()
	s.Seen = int64(r.Uvarint(math.MaxInt64))
	c := r.Count(1)
	s.Cols = make([]string, c)
	for i := range s.Cols {
		s.Cols[i] = r.String(maxNameLen)
	}
	s.Stats = make([]ColStats, r.Fit(uint64(c), 12))
	for i := range s.Stats {
		s.Stats[i] = ColStats{
			Finite: int64(r.Uvarint(math.MaxInt64)),
			NaN:    int64(r.Uvarint(math.MaxInt64)),
			PosInf: int64(r.Uvarint(math.MaxInt64)),
			NegInf: int64(r.Uvarint(math.MaxInt64)),
			Min:    r.F32(),
			Max:    r.F32(),
		}
	}
	s.RowIDs, s.Data = decodeRows(r, c)
	r.String(maxNameLen) // StratifyCol
	r.U8()               // overflow
	for n := r.Count(6); n > 0; n-- {
		r.F32()                  // Key
		r.Uvarint(math.MaxInt64) // Count
		decodeRows(r, c)
	}
	if len(s.RowIDs) > s.Cap || int64(len(s.RowIDs)) > s.Seen {
		r.Failf("sample of %d rows larger than population %d or cap %d", len(s.RowIDs), s.Seen, s.Cap)
	}
	model, interm, ok := splitKey(fileKey)
	if !ok {
		r.Failf("malformed file key")
	}
	if err := r.End(); err != nil {
		return "", "", nil, err
	}
	return model, interm, s, nil
}

// decodeRows reads one reservoir: k; k × RowID; k·c × f32.
func decodeRows(r *durable.Reader, c int) ([]int64, []float32) {
	ids := make([]int64, r.Count(1))
	for i := range ids {
		ids[i] = int64(r.Uvarint(math.MaxInt64))
	}
	return ids, r.Floats(len(ids) * c)
}

func splitKey(key string) (model, interm string, ok bool) {
	for i := 0; i < len(key); i++ {
		if key[i] == 0 {
			return key[:i], key[i+1:], true
		}
	}
	return "", "", false
}

func appendString(buf []byte, s string) []byte {
	buf = binary.AppendUvarint(buf, uint64(len(s)))
	return append(buf, s...)
}

func appendFloats(buf []byte, vals []float32) []byte {
	for _, v := range vals {
		buf = binary.LittleEndian.AppendUint32(buf, math.Float32bits(v))
	}
	return buf
}
