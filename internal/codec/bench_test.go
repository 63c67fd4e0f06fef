package codec

import (
	"compress/gzip"
	"fmt"
	"testing"
)

// benchStreams returns the three store-shaped streams the partition
// benches use, at raw codec level (no chunk framing).
func benchStreams(b *testing.B) map[string][]byte {
	all := testStreams(b)
	return map[string][]byte{
		"f16":       all["f16-interleaved"],
		"kbit":      all["kbit-uniform"],
		"threshold": all["threshold-sparse"],
	}
}

func BenchmarkCodecCompress(b *testing.B) {
	for _, sname := range []string{"f16", "kbit", "threshold"} {
		src := benchStreams(b)[sname]
		for _, cname := range []string{"gzip", "store", "actz"} {
			c, err := ByName(cname)
			if err != nil {
				b.Fatal(err)
			}
			b.Run(fmt.Sprintf("stream=%s/codec=%s", sname, cname), func(b *testing.B) {
				var buf []byte
				var n int
				b.SetBytes(int64(len(src)))
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					var err error
					buf, err = c.Compress(buf[:0], src, gzip.BestSpeed)
					if err != nil {
						b.Fatal(err)
					}
					n = len(buf)
				}
				b.ReportMetric(float64(n), "compbytes")
			})
		}
	}
}

func BenchmarkCodecDecompress(b *testing.B) {
	for _, sname := range []string{"f16", "kbit", "threshold"} {
		src := benchStreams(b)[sname]
		for _, cname := range []string{"gzip", "store", "actz"} {
			c, err := ByName(cname)
			if err != nil {
				b.Fatal(err)
			}
			comp, err := c.Compress(nil, src, gzip.BestSpeed)
			if err != nil {
				b.Fatal(err)
			}
			b.Run(fmt.Sprintf("stream=%s/codec=%s", sname, cname), func(b *testing.B) {
				var buf []byte
				b.SetBytes(int64(len(src)))
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					var err error
					buf, err = c.Decompress(buf[:0], comp)
					if err != nil {
						b.Fatal(err)
					}
					if len(buf) != len(src) {
						b.Fatal("length mismatch")
					}
				}
			})
		}
	}
}
