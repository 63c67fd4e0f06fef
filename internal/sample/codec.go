package sample

import (
	"encoding/binary"
	"errors"
	"fmt"
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
var magicMQSM = [5]byte{'M', 'Q', 'S', 'M', 1}

// ErrCorrupt marks an MQSM image that fails structural or checksum
// validation.
var ErrCorrupt = errors.New("sample: corrupt MQSM image")

// Structural ceilings so a corrupt length field cannot balloon
// allocation during decode.
const (
	maxCols      = 1 << 16
	maxSampleCap = 1 << 26
	maxStrataCap = 1 << 14
)

// Encode serializes the sample with its identity into an MQSM image.
func Encode(model, interm string, s *Sample) []byte {
	c := len(s.Cols)
	buf := make([]byte, 0, 64+len(s.Data)*4+len(s.RowIDs)*2)
	buf = append(buf, magicMQSM[:]...)
	buf = appendString(buf, model+"\x00"+interm)
	buf = binary.AppendUvarint(buf, uint64(s.Cap))
	buf = binary.AppendUvarint(buf, uint64(s.StratumCap))
	buf = binary.AppendUvarint(buf, uint64(s.MaxStrata))
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
	buf = appendString(buf, s.StratifyCol)
	if s.StrataOverflow {
		buf = append(buf, 1)
	} else {
		buf = append(buf, 0)
	}
	buf = binary.AppendUvarint(buf, uint64(len(s.Strata)))
	for _, str := range s.Strata {
		buf = binary.LittleEndian.AppendUint32(buf, math.Float32bits(str.Key))
		buf = binary.AppendUvarint(buf, uint64(str.Count))
		buf = binary.AppendUvarint(buf, uint64(len(str.RowIDs)))
		for _, id := range str.RowIDs {
			buf = binary.AppendUvarint(buf, uint64(id))
		}
		buf = appendFloats(buf, str.Data)
	}
	return durable.Seal(buf)
}

// Decode parses and validates an MQSM image, returning the sample and the
// model/intermediate identity it was written for.
func Decode(data []byte) (model, interm string, s *Sample, err error) {
	if len(data) < len(magicMQSM)+4 {
		return "", "", nil, ErrCorrupt
	}
	for i, b := range magicMQSM {
		if data[i] != b {
			return "", "", nil, ErrCorrupt
		}
	}
	body, sealed := durable.Unseal(data)
	if !sealed {
		return "", "", nil, fmt.Errorf("%w: checksum mismatch", ErrCorrupt)
	}
	d := decoder{buf: body[len(magicMQSM):]}
	fileKey := d.str(maxCols * 2)
	s = &Sample{}
	s.Cap = int(d.uvarint(maxSampleCap))
	s.StratumCap = int(d.uvarint(maxSampleCap))
	s.MaxStrata = int(d.uvarint(maxStrataCap))
	s.Seed = d.u64()
	s.RNGState = d.u64()
	s.Seen = int64(d.uvarint(math.MaxInt64))
	c := int(d.uvarint(maxCols))
	if d.err == nil {
		s.Cols = make([]string, c)
		for i := range s.Cols {
			s.Cols[i] = d.str(1 << 12)
		}
		s.Stats = make([]ColStats, c)
		for i := range s.Stats {
			s.Stats[i] = ColStats{
				Finite: int64(d.uvarint(math.MaxInt64)),
				NaN:    int64(d.uvarint(math.MaxInt64)),
				PosInf: int64(d.uvarint(math.MaxInt64)),
				NegInf: int64(d.uvarint(math.MaxInt64)),
				Min:    math.Float32frombits(d.u32()),
				Max:    math.Float32frombits(d.u32()),
			}
		}
	}
	k := int(d.uvarint(maxSampleCap))
	if d.err == nil {
		s.RowIDs = make([]int64, k)
		for i := range s.RowIDs {
			s.RowIDs[i] = int64(d.uvarint(math.MaxInt64))
		}
		s.Data = d.floats(k * c)
	}
	s.StratifyCol = d.str(1 << 12)
	s.StrataOverflow = d.u8() != 0
	nStr := int(d.uvarint(maxStrataCap))
	if d.err == nil {
		s.Strata = make([]Stratum, nStr)
		for i := range s.Strata {
			str := &s.Strata[i]
			str.Key = math.Float32frombits(d.u32())
			str.Count = int64(d.uvarint(math.MaxInt64))
			kS := int(d.uvarint(maxSampleCap))
			if d.err != nil {
				break
			}
			str.RowIDs = make([]int64, kS)
			for r := range str.RowIDs {
				str.RowIDs[r] = int64(d.uvarint(math.MaxInt64))
			}
			str.Data = d.floats(kS * c)
		}
	}
	if d.err != nil {
		return "", "", nil, fmt.Errorf("%w: %v", ErrCorrupt, d.err)
	}
	if len(d.buf) != 0 {
		return "", "", nil, fmt.Errorf("%w: %d trailing bytes", ErrCorrupt, len(d.buf))
	}
	if int64(len(s.RowIDs)) > s.Seen || len(s.RowIDs) > s.Cap {
		return "", "", nil, fmt.Errorf("%w: sample larger than population or cap", ErrCorrupt)
	}
	model, interm, ok := splitKey(fileKey)
	if !ok {
		return "", "", nil, fmt.Errorf("%w: malformed file key", ErrCorrupt)
	}
	return model, interm, s, nil
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

// decoder is a cursor with sticky error over one MQSM body.
type decoder struct {
	buf []byte
	err error
}

func (d *decoder) fail(what string) {
	if d.err == nil {
		d.err = fmt.Errorf("truncated %s", what)
	}
}

func (d *decoder) uvarint(limit uint64) uint64 {
	if d.err != nil {
		return 0
	}
	v, n := binary.Uvarint(d.buf)
	if n <= 0 {
		d.fail("uvarint")
		return 0
	}
	if v > limit {
		if d.err == nil {
			d.err = fmt.Errorf("value %d exceeds limit %d", v, limit)
		}
		return 0
	}
	d.buf = d.buf[n:]
	return v
}

func (d *decoder) u64() uint64 {
	if d.err != nil {
		return 0
	}
	if len(d.buf) < 8 {
		d.fail("u64")
		return 0
	}
	v := binary.LittleEndian.Uint64(d.buf)
	d.buf = d.buf[8:]
	return v
}

func (d *decoder) u32() uint32 {
	if d.err != nil {
		return 0
	}
	if len(d.buf) < 4 {
		d.fail("u32")
		return 0
	}
	v := binary.LittleEndian.Uint32(d.buf)
	d.buf = d.buf[4:]
	return v
}

func (d *decoder) u8() byte {
	if d.err != nil {
		return 0
	}
	if len(d.buf) < 1 {
		d.fail("byte")
		return 0
	}
	v := d.buf[0]
	d.buf = d.buf[1:]
	return v
}

func (d *decoder) str(limit uint64) string {
	n := d.uvarint(limit)
	if d.err != nil {
		return ""
	}
	if uint64(len(d.buf)) < n {
		d.fail("string")
		return ""
	}
	s := string(d.buf[:n])
	d.buf = d.buf[n:]
	return s
}

func (d *decoder) floats(n int) []float32 {
	if d.err != nil {
		return nil
	}
	if n < 0 || len(d.buf) < n*4 {
		d.fail("float block")
		return nil
	}
	out := make([]float32, n)
	for i := range out {
		out[i] = math.Float32frombits(binary.LittleEndian.Uint32(d.buf[i*4:]))
	}
	d.buf = d.buf[n*4:]
	return out
}
