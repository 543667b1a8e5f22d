package serve

// The binary wire format of the plan service — the compact alternative to
// the JSON API, negotiated per request: a request body is binary iff its
// Content-Type is BinaryContentType, and a response body is binary iff
// the request's Accept header lists it. JSON remains the default on both
// sides, and error responses are always JSON (ErrorResponse), so retry
// and backpressure handling is format-independent.
//
// Messages are length-prefixed with uvarints and carry plans as
// internal/codec blobs instead of canonical JSON:
//
//	convert request   := len(dialect) dialect len(serialized) serialized
//	batch request     := count, then count convert requests
//	convert response  := len(dialect) dialect fp64(8, LE) fingerprint(32)
//	                     len(blob) blob
//	batch response    := count, then count items, then converted errors
//	                     deadline(1) elapsed(8, LE float64) pps(8, LE float64)
//	item              := 0x00 len(blob) blob | 0x01 len(error) error
//
// An error is never empty, and every uvarint is minimal, so a message has
// exactly one encoding. Every length and count is bounds-checked against
// the remaining input, so a corrupted prefix fails with ErrWire instead
// of an absurd allocation.
// Decoded byte slices alias the input buffer; string fields are copies.

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"math/bits"
	"net/http"
	"slices"
	"strconv"
	"strings"

	"uplan/internal/codec"
	"uplan/internal/core"
)

// BinaryContentType is the media type of every binary wire message. Send
// it as Content-Type to submit a binary request body and list it in
// Accept to receive a binary response body.
const BinaryContentType = "application/x-uplan-binary"

// jsonContentType is the default wire format's media type.
const jsonContentType = "application/json"

// ErrWire wraps every binary wire decode failure.
var ErrWire = errors.New("serve: malformed binary wire message")

// wireMaxItems bounds decoded batch counts so a corrupt count byte cannot
// drive a huge allocation; real batches are bounded much lower by
// Options.MaxBatchRecords.
const wireMaxItems = 1 << 20

// minWireRecord is the fewest bytes one batch record or result item can
// take (two empty length-prefixed fields; a tag and an empty field), so a
// decoded count is also bounded by the bytes left to hold it.
const minWireRecord = 2

func wireErr(format string, args ...any) error {
	return fmt.Errorf("%w: %s", ErrWire, fmt.Sprintf(format, args...))
}

// readWireUvarint decodes the uvarint at data[off:]. Only the minimal
// encoding is accepted, so every message has one byte form and a decoded
// message re-encodes byte-identically.
func readWireUvarint(data []byte, off int) (uint64, int, error) {
	v, n := binary.Uvarint(data[off:])
	if n <= 0 {
		return 0, 0, wireErr("truncated varint at offset %d", off)
	}
	if n != uvarintLen(v) {
		return 0, 0, wireErr("non-minimal varint at offset %d", off)
	}
	return v, off + n, nil
}

// readWireBytes decodes one length-prefixed field, returning a slice that
// aliases data.
func readWireBytes(data []byte, off int) ([]byte, int, error) {
	n, off, err := readWireUvarint(data, off)
	if err != nil {
		return nil, 0, err
	}
	if n > uint64(len(data)-off) {
		return nil, 0, wireErr("field of %d bytes exceeds %d remaining", n, len(data)-off)
	}
	return data[off : off+int(n)], off + int(n), nil
}

func appendWireBytes(dst []byte, b []byte) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(b)))
	return append(dst, b...)
}

func appendWireString(dst []byte, s string) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(s)))
	return append(dst, s...)
}

// uvarintLen is the length of v's uvarint encoding.
func uvarintLen(v uint64) int {
	return (bits.Len64(v|1) + 6) / 7
}

// AppendBinaryConvertRequest appends req's binary encoding to dst.
func AppendBinaryConvertRequest(dst []byte, req ConvertRequest) []byte {
	dst = appendWireString(dst, req.Dialect)
	return appendWireString(dst, req.Serialized)
}

// DecodeBinaryConvertRequest decodes one binary convert request,
// requiring the message to end exactly at the last field.
func DecodeBinaryConvertRequest(data []byte) (ConvertRequest, error) {
	req, off, err := decodeConvertRequestAt(data, 0)
	if err != nil {
		return ConvertRequest{}, err
	}
	if off != len(data) {
		return ConvertRequest{}, wireErr("%d trailing bytes after convert request", len(data)-off)
	}
	return req, nil
}

func decodeConvertRequestAt(data []byte, off int) (ConvertRequest, int, error) {
	dialect, off, err := readWireBytes(data, off)
	if err != nil {
		return ConvertRequest{}, 0, err
	}
	serialized, off, err := readWireBytes(data, off)
	if err != nil {
		return ConvertRequest{}, 0, err
	}
	return ConvertRequest{Dialect: string(dialect), Serialized: string(serialized)}, off, nil
}

// AppendBinaryBatchRequest appends req's binary encoding to dst, growing
// dst once to the exact encoded size first.
func AppendBinaryBatchRequest(dst []byte, req BatchRequest) []byte {
	n := uvarintLen(uint64(len(req.Records)))
	for _, r := range req.Records {
		n += uvarintLen(uint64(len(r.Dialect))) + len(r.Dialect) + uvarintLen(uint64(len(r.Serialized))) + len(r.Serialized)
	}
	dst = slices.Grow(dst, n)
	dst = binary.AppendUvarint(dst, uint64(len(req.Records)))
	for _, r := range req.Records {
		dst = AppendBinaryConvertRequest(dst, r)
	}
	return dst
}

// DecodeBinaryBatchRequest decodes one binary batch request.
func DecodeBinaryBatchRequest(data []byte) (BatchRequest, error) {
	count, off, err := readWireUvarint(data, 0)
	if err != nil {
		return BatchRequest{}, err
	}
	if count > wireMaxItems || count > uint64(len(data)-off)/minWireRecord {
		return BatchRequest{}, wireErr("batch of %d records exceeds the wire cap or the %d remaining bytes", count, len(data)-off)
	}
	req := BatchRequest{Records: make([]ConvertRequest, 0, count)}
	for i := uint64(0); i < count; i++ {
		var rec ConvertRequest
		rec, off, err = decodeConvertRequestAt(data, off)
		if err != nil {
			return BatchRequest{}, err
		}
		req.Records = append(req.Records, rec)
	}
	if off != len(data) {
		return BatchRequest{}, wireErr("%d trailing bytes after batch request", len(data)-off)
	}
	return req, nil
}

// BinaryConvertResponse is one successful conversion on the binary wire:
// the structural fingerprints in their natural binary forms plus the plan
// as an internal/codec blob instead of canonical JSON.
type BinaryConvertResponse struct {
	Dialect string
	// Fingerprint64 is the FNV-1a structural sketch (the JSON API's
	// decimal-string field, undecorated).
	Fingerprint64 uint64
	// Fingerprint is the raw SHA-256 structural fingerprint.
	Fingerprint [32]byte
	// PlanBlob is the converted plan encoded by internal/codec; decode
	// with codec.DecodeInto.
	PlanBlob []byte
}

// AppendBinaryConvertResponse appends resp's binary encoding to dst.
func AppendBinaryConvertResponse(dst []byte, resp BinaryConvertResponse) []byte {
	dst = appendWireString(dst, resp.Dialect)
	dst = binary.LittleEndian.AppendUint64(dst, resp.Fingerprint64)
	dst = append(dst, resp.Fingerprint[:]...)
	return appendWireBytes(dst, resp.PlanBlob)
}

// DecodeBinaryConvertResponse decodes one binary convert response.
// PlanBlob aliases data.
func DecodeBinaryConvertResponse(data []byte) (BinaryConvertResponse, error) {
	var resp BinaryConvertResponse
	dialect, off, err := readWireBytes(data, 0)
	if err != nil {
		return BinaryConvertResponse{}, err
	}
	resp.Dialect = string(dialect)
	if len(data)-off < 8+32 {
		return BinaryConvertResponse{}, wireErr("truncated fingerprints")
	}
	resp.Fingerprint64 = binary.LittleEndian.Uint64(data[off:])
	off += 8
	off += copy(resp.Fingerprint[:], data[off:off+32])
	resp.PlanBlob, off, err = readWireBytes(data, off)
	if err != nil {
		return BinaryConvertResponse{}, err
	}
	if off != len(data) {
		return BinaryConvertResponse{}, wireErr("%d trailing bytes after convert response", len(data)-off)
	}
	return resp, nil
}

// BinaryBatchItem is one record's outcome on the binary wire. Exactly one
// of PlanBlob and Error is meaningful: a failed record carries its error
// string, a converted one its codec blob.
type BinaryBatchItem struct {
	PlanBlob []byte
	Error    string
}

// BinaryBatchResponse mirrors BatchResponse on the binary wire, with
// plans as codec blobs.
type BinaryBatchResponse struct {
	Results          []BinaryBatchItem
	Converted        int
	Errors           int
	DeadlineExceeded bool
	ElapsedSeconds   float64
	PlansPerSec      float64
}

// Item tags on the binary batch wire.
const (
	wireItemPlan  = 0x00
	wireItemError = 0x01
)

// AppendBinaryBatchResponse appends resp's binary encoding to dst. The
// server streams the same layout through appendBatchPlan,
// appendBatchError and appendBatchTrailer without building resp.
func AppendBinaryBatchResponse(dst []byte, resp BinaryBatchResponse) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(resp.Results)))
	for _, it := range resp.Results {
		if it.Error != "" {
			dst = appendBatchError(dst, it.Error)
			continue
		}
		dst = append(dst, wireItemPlan)
		dst = appendWireBytes(dst, it.PlanBlob)
	}
	return appendBatchTrailer(dst, resp.Converted, resp.Errors, resp.DeadlineExceeded, resp.ElapsedSeconds, resp.PlansPerSec)
}

// appendBatchPlan appends one converted batch item, encoding p with enc
// straight behind its tag and length. On error dst is returned unchanged.
func appendBatchPlan(dst []byte, enc *codec.Encoder, p *core.Plan) ([]byte, error) {
	out, err := enc.AppendEncodeLen(append(dst, wireItemPlan), p)
	if err != nil {
		return dst, err
	}
	return out, nil
}

// appendBatchError appends one failed batch item. The wire requires a
// non-empty message, which tells the item apart from a converted one.
func appendBatchError(dst []byte, msg string) []byte {
	if msg == "" {
		msg = "unknown error"
	}
	dst = append(dst, wireItemError)
	return appendWireString(dst, msg)
}

// appendBatchTrailer appends the batch response's counters and timing,
// which follow the items.
func appendBatchTrailer(dst []byte, converted, errs int, deadlineExceeded bool, elapsed, pps float64) []byte {
	dst = binary.AppendUvarint(dst, uint64(converted))
	dst = binary.AppendUvarint(dst, uint64(errs))
	if deadlineExceeded {
		dst = append(dst, 1)
	} else {
		dst = append(dst, 0)
	}
	dst = binary.LittleEndian.AppendUint64(dst, math.Float64bits(elapsed))
	return binary.LittleEndian.AppendUint64(dst, math.Float64bits(pps))
}

// DecodeBinaryBatchResponse decodes one binary batch response. Item
// PlanBlob slices alias data.
func DecodeBinaryBatchResponse(data []byte) (BinaryBatchResponse, error) {
	var resp BinaryBatchResponse
	count, off, err := readWireUvarint(data, 0)
	if err != nil {
		return BinaryBatchResponse{}, err
	}
	if count > wireMaxItems || count > uint64(len(data)-off)/minWireRecord {
		return BinaryBatchResponse{}, wireErr("batch of %d results exceeds the wire cap or the %d remaining bytes", count, len(data)-off)
	}
	resp.Results = make([]BinaryBatchItem, 0, count)
	for i := uint64(0); i < count; i++ {
		if off >= len(data) {
			return BinaryBatchResponse{}, wireErr("truncated batch item %d", i)
		}
		tag := data[off]
		off++
		var field []byte
		field, off, err = readWireBytes(data, off)
		if err != nil {
			return BinaryBatchResponse{}, err
		}
		switch tag {
		case wireItemPlan:
			resp.Results = append(resp.Results, BinaryBatchItem{PlanBlob: field})
		case wireItemError:
			if len(field) == 0 {
				// An empty error would read back as a converted item.
				return BinaryBatchResponse{}, wireErr("batch item %d carries an empty error", i)
			}
			resp.Results = append(resp.Results, BinaryBatchItem{Error: string(field)})
		default:
			return BinaryBatchResponse{}, wireErr("unknown batch item tag 0x%02x", tag)
		}
	}
	converted, off, err := readWireUvarint(data, off)
	if err != nil {
		return BinaryBatchResponse{}, err
	}
	errs, off, err := readWireUvarint(data, off)
	if err != nil {
		return BinaryBatchResponse{}, err
	}
	if converted > wireMaxItems || errs > wireMaxItems {
		return BinaryBatchResponse{}, wireErr("implausible batch counters")
	}
	resp.Converted, resp.Errors = int(converted), int(errs)
	if len(data)-off < 1+8+8 {
		return BinaryBatchResponse{}, wireErr("truncated batch trailer")
	}
	switch data[off] {
	case 0:
	case 1:
		resp.DeadlineExceeded = true
	default:
		return BinaryBatchResponse{}, wireErr("bad deadline flag 0x%02x", data[off])
	}
	off++
	resp.ElapsedSeconds = math.Float64frombits(binary.LittleEndian.Uint64(data[off:]))
	off += 8
	resp.PlansPerSec = math.Float64frombits(binary.LittleEndian.Uint64(data[off:]))
	off += 8
	if off != len(data) {
		return BinaryBatchResponse{}, wireErr("%d trailing bytes after batch response", len(data)-off)
	}
	return resp, nil
}

// mediaType extracts the bare media type from a Content-Type or Accept
// element, dropping parameters and normalizing case.
func mediaType(v string) string {
	if i := strings.IndexByte(v, ';'); i >= 0 {
		v = v[:i]
	}
	return strings.ToLower(strings.TrimSpace(v))
}

// isBinaryContent reports whether the request body is on the binary wire.
func isBinaryContent(r *http.Request) bool {
	return mediaType(r.Header.Get("Content-Type")) == BinaryContentType
}

// acceptsBinary reports whether the client asked for a binary response
// body. Only an explicit BinaryContentType entry counts — wildcards keep
// the JSON default, so existing clients never see a format change — and
// an entry with q=0 counts as absent: RFC 9110 §12.4.2 makes it "not
// acceptable".
func acceptsBinary(r *http.Request) bool {
	for _, part := range strings.Split(r.Header.Get("Accept"), ",") {
		if mediaType(part) == BinaryContentType && !zeroQuality(part) {
			return true
		}
	}
	return false
}

// zeroQuality reports whether an Accept entry's q parameter parses to 0.
func zeroQuality(entry string) bool {
	_, params, _ := strings.Cut(entry, ";")
	for _, param := range strings.Split(params, ";") {
		name, value, ok := strings.Cut(param, "=")
		if ok && strings.EqualFold(strings.TrimSpace(name), "q") {
			q, err := strconv.ParseFloat(strings.TrimSpace(value), 64)
			return err == nil && q == 0
		}
	}
	return false
}

// negotiatedType maps the Accept decision to the response media type.
func negotiatedType(binary bool) string {
	if binary {
		return BinaryContentType
	}
	return jsonContentType
}
