package wal

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"math/rand"
	"runtime"
	"testing"
)

// FuzzWALRecord feeds arbitrary bytes to Codec.Read, plain and chained, at
// dimensions 1–9. Reading must never panic, and every record it accepts must
// re-encode to exactly the bytes it consumed with the same chain value — the
// checksum admits no second encoding.
func FuzzWALRecord(f *testing.F) {
	rng := rand.New(rand.NewSource(5))
	for _, chained := range []bool{false, true} {
		for dim := 1; dim <= 3; dim++ {
			c := Codec{Dim: dim, Chained: chained}
			var buf []byte
			chain := uint32(7)
			for epoch := uint64(1); epoch <= 3; epoch++ {
				var err error
				if buf, chain, err = c.Append(buf, testRecord(rng, dim, epoch), chain); err != nil {
					f.Fatal(err)
				}
			}
			f.Add(buf, uint8(dim-1), chained)
		}
	}
	f.Add([]byte{}, uint8(0), false)
	f.Add(bytes.Repeat([]byte{0xff}, 40), uint8(1), true)
	f.Fuzz(func(t *testing.T, data []byte, dimSel uint8, chained bool) {
		c := Codec{Dim: int(dimSel%9) + 1, Chained: chained}
		br := bufio.NewReader(bytes.NewReader(data))
		chain := uint32(7)
		var off int64
		for {
			rec, n, next, err := c.Read(br, chain)
			if err != nil {
				if n != 0 {
					t.Fatalf("failed read consumed %d bytes", n)
				}
				if errors.Is(err, io.EOF) && off != int64(len(data)) {
					t.Fatalf("io.EOF at offset %d of %d", off, len(data))
				}
				return
			}
			enc, sum, err := c.Append(nil, rec, chain)
			if err != nil {
				t.Fatalf("accepted record does not re-encode: %v", err)
			}
			if int64(len(enc)) != n || !bytes.Equal(enc, data[off:off+n]) || sum != next {
				t.Fatalf("record at offset %d re-encodes differently", off)
			}
			off += n
			chain = next
		}
	})
}

// FuzzSegmentHeader feeds arbitrary bytes to decodeSegHeader. It must never
// panic, and an accepted header must be the canonical encoding of its own
// fields, with the chain seed equal to its checksum.
func FuzzSegmentHeader(f *testing.F) {
	var root [rootSize]byte
	for i := range root {
		root[i] = byte(i * 7)
	}
	f.Add(encodeSegHeader(2, 1, [rootSize]byte{}))
	f.Add(encodeSegHeader(9, 1<<40, root))
	f.Add(make([]byte, segHeaderSize))
	f.Add([]byte("GRSGv1"))
	f.Fuzz(func(t *testing.T, hdr []byte) {
		dim, base, prev, chain, _, err := decodeSegHeader(hdr)
		if err != nil {
			return
		}
		enc := encodeSegHeader(dim, base, prev)
		if !bytes.Equal(enc, hdr) {
			t.Fatalf("accepted header is not the encoding of its fields (dim %d, base %d)", dim, base)
		}
		if _, _, _, again, _, err := decodeSegHeader(enc); err != nil || again != chain {
			t.Fatalf("re-decoding the header: chain %d vs %d, %v", again, chain, err)
		}
	})
}

// TestReadCorruptHeaderBoundedAlloc: a 16-byte header claiming MaxBatch
// inserts and deletes at dimension 9 announces a 1.3 GB payload. Read must
// report the record torn without allocating for the claim.
func TestReadCorruptHeaderBoundedAlloc(t *testing.T) {
	head := make([]byte, 16)
	binary.LittleEndian.PutUint32(head[8:12], MaxBatch)
	binary.LittleEndian.PutUint32(head[12:16], MaxBatch)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	_, _, _, err := Codec{Dim: 9}.Read(bufio.NewReader(bytes.NewReader(append(head, make([]byte, 1000)...))), 0)
	runtime.ReadMemStats(&after)
	if !errors.Is(err, ErrTorn) {
		t.Errorf("Read = %v, want ErrTorn", err)
	}
	if grew := after.TotalAlloc - before.TotalAlloc; grew > 4<<20 {
		t.Errorf("Read allocated %d bytes for a 1 KB input", grew)
	}
}
