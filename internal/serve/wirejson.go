package serve

import (
	"encoding/json"
	"fmt"

	"uplan/internal/core"
	"uplan/internal/jsonenc"
)

// The JSON wire format's hand-written codecs. Request bodies are read by
// the library's one JSON reader (core.JSONReader) in one pass, with
// encoding/json's struct semantics: a null leaves a field alone, a
// repeated key overwrites (and a repeated "records" array decodes over
// the earlier one element by element), an unknown field is an error, and
// so is anything but whitespace after the body. Two things differ, and
// FuzzJSONWireRequest lists them: keys match with exact case, and strings
// with invalid UTF-8 pass through unchanged instead of becoming U+FFFD.
//
// Response bodies are appended around core's AppendJSON with jsonenc's
// quoter (see wireBuf), and are byte-identical to json.Marshal of the
// wire types (TestServeConvertBodyMatchesReference and its batch twin
// check it).

// unknownField rejects a request key the wire type does not have, with
// the error json.Decoder.DisallowUnknownFields gives.
func unknownField(key string) error {
	return fmt.Errorf("json: unknown field %q", key)
}

// readConvertRequest reads one ConvertRequest object into dst.
//
//uplan:hotpath
func readConvertRequest(r *core.JSONReader, dst *ConvertRequest) error {
	return r.Object(func(key string) error {
		switch key {
		case "dialect":
			return r.String(&dst.Dialect)
		case "serialized":
			return r.String(&dst.Serialized)
		}
		return unknownField(key)
	})
}

// decodeConvertRequest decodes one JSON convert (or fingerprint) request
// body. The strings are copies; none aliases body.
//
//uplan:hotpath
func decodeConvertRequest(body []byte) (ConvertRequest, error) {
	var req ConvertRequest
	r := core.NewJSONReader(string(body), nil)
	if err := readConvertRequest(&r, &req); err != nil {
		return ConvertRequest{}, err
	}
	return req, r.End()
}

// decodeBatchRequest decodes one JSON batch request body. It stops at
// the first record past maxRecords with errBatchOverCap, so an oversized
// batch costs one record slice of maxRecords, not one of every record.
func decodeBatchRequest(body []byte, maxRecords int) (BatchRequest, error) {
	var req BatchRequest
	r := core.NewJSONReader(string(body), nil)
	err := r.Object(func(key string) error {
		if key != "records" {
			return unknownField(key)
		}
		if r.Null() {
			req.Records = nil
			return nil
		}
		// encoding/json decodes a slice over its current elements, so a
		// repeated "records" key merges into the earlier records.
		recs, n := req.Records, 0
		err := r.Array(func(i int) error {
			if i >= maxRecords {
				return batchOverCap(maxRecords)
			}
			switch {
			case i >= cap(recs):
				recs = append(recs, ConvertRequest{})
			case i >= len(recs):
				recs = recs[:i+1]
			}
			n = i + 1
			return readConvertRequest(&r, &recs[i])
		})
		if recs = recs[:n]; n == 0 {
			recs = []ConvertRequest{}
		}
		req.Records = recs
		return err
	})
	if err != nil {
		return BatchRequest{}, err
	}
	return req, r.End()
}

// decodeCompareRequest decodes one JSON compare request body.
func decodeCompareRequest(body []byte) (CompareRequest, error) {
	var req CompareRequest
	r := core.NewJSONReader(string(body), nil)
	err := r.Object(func(key string) error {
		switch key {
		case "a":
			return readConvertRequest(&r, &req.A)
		case "b":
			return readConvertRequest(&r, &req.B)
		}
		return unknownField(key)
	})
	if err != nil {
		return CompareRequest{}, err
	}
	return req, r.End()
}

// DecodeConvertResponse decodes one JSON convert response body. Unknown
// fields are skipped, so a client keeps working against a server that
// adds some; keys match with exact case. Plan is a copy of the plan's
// bytes as the body carries them.
//
//uplan:hotpath
func DecodeConvertResponse(body []byte) (ConvertResponse, error) {
	var resp ConvertResponse
	r := core.NewJSONReader(string(body), nil)
	err := r.Object(func(key string) error {
		switch key {
		case "dialect":
			return r.String(&resp.Dialect)
		case "plan":
			raw, err := r.Raw()
			resp.Plan = json.RawMessage(raw)
			return err
		case "fingerprint64":
			return r.String(&resp.Fingerprint64)
		case "fingerprint":
			return r.String(&resp.Fingerprint)
		}
		return r.Skip()
	})
	if err != nil {
		return ConvertResponse{}, err
	}
	return resp, r.End()
}

// DecodeFingerprintResponse decodes one JSON fingerprint response body:
// a convert response body without the plan, read by the same rules.
func DecodeFingerprintResponse(body []byte) (FingerprintResponse, error) {
	resp, err := DecodeConvertResponse(body)
	return FingerprintResponse{Dialect: resp.Dialect, Fingerprint64: resp.Fingerprint64, Fingerprint: resp.Fingerprint}, err
}

// AppendConvertRequest appends req's JSON body to dst: json.Marshal's
// bytes for req.
func AppendConvertRequest(dst []byte, req ConvertRequest) []byte {
	dst = append(dst, `{"dialect":`...)
	dst = jsonenc.AppendString(dst, req.Dialect)
	dst = append(dst, `,"serialized":`...)
	dst = jsonenc.AppendString(dst, req.Serialized)
	return append(dst, '}')
}
