package store

import (
	"fmt"
	"strconv"
	"testing"
)

// BenchmarkStoreAppend measures the append hot path: one framed,
// CRC-summed finding record per op, written through the default OS file
// (no fsync — durability is priced at checkpoints, not per record).
func BenchmarkStoreAppend(b *testing.B) {
	s, err := Open(b.TempDir(), Options{})
	if err != nil {
		b.Fatal(err)
	}
	defer s.Close()
	f := Finding{Engine: "postgresql", Oracle: "qpg", Kind: "logic", Query: "SELECT 1", Detail: ""}
	var scratch [24]byte
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		// Unique detail so every op takes the write path, not the dedup
		// fast path.
		f.Detail = string(strconv.AppendInt(scratch[:0], int64(i), 10))
		if _, err := s.AppendFinding(f); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	if err := s.Sync(); err != nil {
		b.Fatal(err)
	}
}

// BenchmarkStoreAppendPlan measures the fingerprint append path,
// including its dedup index hit/miss mix (every op is a miss).
func BenchmarkStoreAppendPlan(b *testing.B) {
	s, err := Open(b.TempDir(), Options{})
	if err != nil {
		b.Fatal(err)
	}
	defer s.Close()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var fp [32]byte
		fp[0], fp[1], fp[2], fp[3] = byte(i), byte(i>>8), byte(i>>16), byte(i>>24)
		if _, err := s.AppendPlan(fp); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkStoreOpen measures recovery: replaying a log of mixed
// records (checksum verification, payload decode, index rebuild).
func BenchmarkStoreOpen(b *testing.B) {
	dir := b.TempDir()
	s, err := Open(dir, Options{})
	if err != nil {
		b.Fatal(err)
	}
	const records = 5000
	for i := 0; i < records; i++ {
		var fp [32]byte
		fp[0], fp[1], fp[2] = byte(i), byte(i>>8), byte(i>>16)
		if _, err := s.AppendPlan(fp); err != nil {
			b.Fatal(err)
		}
		if i%4 == 0 {
			if _, err := s.AppendFinding(Finding{
				Engine: "mysql", Oracle: "tlp", Kind: "logic",
				Query: "SELECT 1", Detail: fmt.Sprintf("case %d", i),
			}); err != nil {
				b.Fatal(err)
			}
		}
	}
	if err := s.Close(); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r, err := Open(dir, Options{})
		if err != nil {
			b.Fatal(err)
		}
		if r.Plans() != records {
			b.Fatalf("recovered %d plans", r.Plans())
		}
		if err := r.Close(); err != nil {
			b.Fatal(err)
		}
	}
}
