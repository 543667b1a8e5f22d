// The codec-surface cases: a dropped Encode/DecodeInto error hands
// garbage to the differential oracle. The handled variants at the bottom
// are the false-positive corpus.

package oracleerr

import (
	"uplan/internal/codec"
	"uplan/internal/core"
	"uplan/internal/pipeline"
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

// encodeInSink drops the encoder's error inside a batch sink, where the
// plan is encoded in its worker's arena: the record silently vanishes
// from the response.
func encodeInSink(recs []pipeline.Record, encs []codec.Encoder, bufs [][]byte) {
	pipeline.Run(recs, pipeline.Options{}, func(chunk, i int, p *core.Plan, err error) {
		if err == nil {
			bufs[chunk], _ = encs[chunk].AppendEncodeLen(bufs[chunk], p) // want `error result of codec\.Encoder\.AppendEncodeLen discarded inside a worker closure`
		}
	})
}

// encodeInSinkHandled records the encoder's error in the record's slot,
// the shape the serve batch sink uses.
func encodeInSinkHandled(recs []pipeline.Record, encs []codec.Encoder, bufs [][]byte, errs []error) {
	pipeline.Run(recs, pipeline.Options{}, func(chunk, i int, p *core.Plan, err error) {
		if err == nil {
			bufs[chunk], err = encs[chunk].AppendEncodeLen(bufs[chunk], p)
		}
		errs[i] = err
	})
}
