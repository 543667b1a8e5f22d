package serve

import (
	"bytes"
	"errors"
	"testing"
)

// maxDecodeAlloc is the linear allocation budget for decoding n input
// bytes: a batch count is bounded by the input, so the decoded slice and
// its copied strings grow at most linearly (a record or item takes at
// least two bytes and costs at most 40 bytes of slice element), plus a
// constant for the bookkeeping of the measurement itself.
func maxDecodeAlloc(n int) uint64 { return 32*uint64(n) + 64<<10 }

// addTruncations seeds f with msg and cuts of it at the structurally
// interesting offsets.
func addTruncations(f *testing.F, msg []byte) {
	f.Add(msg)
	for _, cut := range []int{0, 1, 2, 3, len(msg) / 2, len(msg) - 1} {
		if cut >= 0 && cut < len(msg) {
			f.Add(msg[:cut])
		}
	}
}

// seedBatches splits the seed-42 corpus into a few small batches with a
// failing record mixed in, so fuzz seeds stay a few kilobytes each.
func seedBatches(f *testing.F) [][]ConvertRequest {
	reqs := corpusRequests(f, 42)
	var batches [][]ConvertRequest
	for i, size := range []int{1, 2, 4} {
		batch := append([]ConvertRequest{}, reqs[i*7:i*7+size]...)
		batches = append(batches, append(batch, badRequests[i]))
	}
	return batches
}

// FuzzWireConvertRequest fuzzes DecodeBinaryBatchRequest on the shape a
// binary client's single convert takes: a batch of one record. It is
// seeded from one record of each dialect, a failing record and their
// truncations. Invariants: no panic; every failure wraps ErrWire; a
// decoded request re-encodes byte-identically; allocation stays linear
// in the input length.
func FuzzWireConvertRequest(f *testing.F) {
	for _, req := range append(seedRecords(f), badRequests[0]) {
		addTruncations(f, AppendBinaryBatchRequest(nil, BatchRequest{Records: []ConvertRequest{req}}))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		var req BatchRequest
		var err error
		if alloc := allocated(func() { req, err = DecodeBinaryBatchRequest(data, wireMaxItems) }); alloc > maxDecodeAlloc(len(data)) {
			t.Fatalf("decoding %d bytes allocated %d bytes", len(data), alloc)
		}
		if err != nil {
			if !errors.Is(err, ErrWire) {
				t.Fatalf("error %v does not wrap ErrWire", err)
			}
			return
		}
		if re := AppendBinaryBatchRequest(nil, req); !bytes.Equal(re, data) {
			t.Fatalf("decoded request re-encodes to %d different bytes", len(re))
		}
	})
}

// FuzzWireConvertResponse is FuzzWireConvertRequest's response
// counterpart, seeded from the one-item batch responses to the same
// records: the codec blob and the trailer, as the service builds them.
func FuzzWireConvertResponse(f *testing.F) {
	for _, req := range seedRecords(f) {
		resp := referenceBatchResponse(f, []ConvertRequest{req})
		resp.ElapsedSeconds, resp.PlansPerSec = 0.25, 4
		addTruncations(f, AppendBinaryBatchResponse(nil, resp))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		var resp BinaryBatchResponse
		var err error
		if alloc := allocated(func() { resp, err = DecodeBinaryBatchResponse(data) }); alloc > maxDecodeAlloc(len(data)) {
			t.Fatalf("decoding %d bytes allocated %d bytes", len(data), alloc)
		}
		if err != nil {
			if !errors.Is(err, ErrWire) {
				t.Fatalf("error %v does not wrap ErrWire", err)
			}
			return
		}
		if re := AppendBinaryBatchResponse(nil, resp); !bytes.Equal(re, data) {
			t.Fatalf("decoded response re-encodes to %d different bytes", len(re))
		}
	})
}

// FuzzWireBatchRequest fuzzes DecodeBinaryBatchRequest, seeded from
// corpus batches and their truncations. Invariants: no panic; every
// failure wraps ErrWire; a decoded request re-encodes byte-identically;
// allocation stays linear in the input length.
func FuzzWireBatchRequest(f *testing.F) {
	for _, batch := range seedBatches(f) {
		addTruncations(f, AppendBinaryBatchRequest(nil, BatchRequest{Records: batch}))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		var req BatchRequest
		var err error
		if alloc := allocated(func() { req, err = DecodeBinaryBatchRequest(data, wireMaxItems) }); alloc > maxDecodeAlloc(len(data)) {
			t.Fatalf("decoding %d bytes allocated %d bytes", len(data), alloc)
		}
		if err != nil {
			if !errors.Is(err, ErrWire) {
				t.Fatalf("error %v does not wrap ErrWire", err)
			}
			return
		}
		if re := AppendBinaryBatchRequest(nil, req); !bytes.Equal(re, data) {
			t.Fatalf("decoded request re-encodes to %d different bytes", len(re))
		}
	})
}

// FuzzWireBatchResponse is FuzzWireBatchRequest's response counterpart,
// seeded from the responses to the same batches: codec blobs, error
// items, and the trailer.
func FuzzWireBatchResponse(f *testing.F) {
	for _, batch := range seedBatches(f) {
		resp := referenceBatchResponse(f, batch)
		resp.ElapsedSeconds, resp.PlansPerSec = 0.25, 4*float64(len(batch))
		addTruncations(f, AppendBinaryBatchResponse(nil, resp))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		var resp BinaryBatchResponse
		var err error
		if alloc := allocated(func() { resp, err = DecodeBinaryBatchResponse(data) }); alloc > maxDecodeAlloc(len(data)) {
			t.Fatalf("decoding %d bytes allocated %d bytes", len(data), alloc)
		}
		if err != nil {
			if !errors.Is(err, ErrWire) {
				t.Fatalf("error %v does not wrap ErrWire", err)
			}
			return
		}
		if re := AppendBinaryBatchResponse(nil, resp); !bytes.Equal(re, data) {
			t.Fatalf("decoded response re-encodes to %d different bytes", len(re))
		}
	})
}
