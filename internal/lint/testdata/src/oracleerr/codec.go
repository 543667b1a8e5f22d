// The codec-surface cases: a dropped Encode/DecodeInto error hands
// garbage to the differential oracle. The handled variants at the bottom
// are the false-positive corpus.

package oracleerr

import (
	"uplan/internal/codec"
	"uplan/internal/core"
)

// dropEncodeErr keeps the blob but loses the error that said it is not a
// complete encoding.
func dropEncodeErr(p *core.Plan) []byte {
	blob, _ := codec.Encode(p) // want `error result of codec\.Encode assigned to _`
	return blob
}

// dropDecodeErr hands a possibly half-built plan to the caller as if the
// decode succeeded.
func dropDecodeErr(data []byte, ar *core.PlanArena) *core.Plan {
	p, _ := codec.DecodeInto(data, ar) // want `error result of codec\.DecodeInto assigned to _`
	return p
}

// handledEncode is the correct shape: the error travels to the caller
// with the blob.
func handledEncode(p *core.Plan) ([]byte, error) {
	return codec.Encode(p)
}

// handledDecode observes the error before trusting the plan.
func handledDecode(data []byte, ar *core.PlanArena) *core.Plan {
	p, err := codec.DecodeInto(data, ar)
	if err != nil {
		return nil
	}
	return p
}
