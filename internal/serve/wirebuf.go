package serve

import (
	"encoding/binary"
	"strconv"
	"sync"

	"uplan/internal/codec"
	"uplan/internal/core"
	"uplan/internal/jsonenc"
	"uplan/internal/pipeline"
)

// wireBuf is a pooled wire-message buffer. A request body is read into
// one, and every response body, convert, fingerprint or batch, is
// appended to one while the plan is still in its arena, so no served
// plan is cloned: plan JSON written by (*core.Plan).AppendJSON, or, for
// a binary batch, codec blobs written by enc. A wireBuf serves one
// goroutine at a time.
type wireBuf struct {
	binary bool
	body   []byte
	errs   int           // batch items appended as errors
	enc    codec.Encoder // reused for every binary plan blob
}

var wireBufPool = sync.Pool{New: func() any { return new(wireBuf) }}

// maxPooledWireBuf bounds the buffers kept for reuse, so one large batch
// does not pin its memory for the life of the process.
const maxPooledWireBuf = 1 << 20

func getWireBuf(binary bool) *wireBuf {
	r := wireBufPool.Get().(*wireBuf)
	r.binary = binary
	return r
}

// put returns r to the pool unless its body, which also bounds the
// encoder's scratch, grew past maxPooledWireBuf.
func (r *wireBuf) put() {
	if cap(r.body) > maxPooledWireBuf {
		return
	}
	r.body, r.errs = r.body[:0], 0
	wireBufPool.Put(r)
}

// single appends the JSON response to one converted plan: a
// ConvertResponse (withPlan) or a FingerprintResponse.
//
//uplan:hotpath
func (r *wireBuf) single(dialect string, p *core.Plan, withPlan bool) {
	r.body = append(r.body, `{"dialect":`...)
	r.body = jsonenc.AppendString(r.body, dialect)
	if withPlan {
		r.body = append(r.body, `,"plan":`...)
		r.body = p.AppendJSON(r.body)
	}
	r.body = append(r.body, `,"fingerprint64":"`...)
	r.body = strconv.AppendUint(r.body, p.Fingerprint64(core.FingerprintOptions{}), 10)
	r.body = append(r.body, `","fingerprint":"`...)
	r.body = core.AppendHexFingerprint(r.body, p.FingerprintBytes(core.FingerprintOptions{}))
	r.body = append(r.body, `"}`...)
}

// head opens a batch response of n items.
func (r *wireBuf) head(n int) {
	if r.binary {
		r.body = binary.AppendUvarint(r.body, uint64(n))
	} else {
		r.body = append(r.body, `{"results":[`...)
	}
}

// item appends record i's batch item: its plan, or err's message. A plan
// the encoder rejects becomes an error item. Items that carry an error
// are counted in errs.
//
//uplan:hotpath
func (r *wireBuf) item(i int, p *core.Plan, err error) {
	if r.binary {
		if err == nil {
			var b []byte
			if b, err = r.enc.AppendEncodeLen(append(r.body, wireItemPlan), p); err == nil {
				r.body = b
				return
			}
		}
		r.errs++
		r.body = appendBatchError(r.body, err.Error())
		return
	}
	if i > 0 {
		r.body = append(r.body, ',')
	}
	r.body = append(r.body, '{')
	if err != nil {
		r.errs++
		if msg := err.Error(); msg != "" {
			r.body = append(r.body, `"error":`...)
			r.body = jsonenc.AppendString(r.body, msg)
		}
	} else {
		r.body = append(r.body, `"plan":`...)
		r.body = p.AppendJSON(r.body)
	}
	r.body = append(r.body, '}')
}

// trailer closes a batch response with its counters and timing. errs
// counts error items, not stats.Errors: records the deadline cut off
// before a worker claimed them carry ctx's error but are not conversion
// errors, and the response must still add up.
func (r *wireBuf) trailer(stats pipeline.Stats, errs int, deadlineExceeded bool) {
	if r.binary {
		r.body = appendBatchTrailer(r.body, stats.Converted, errs, deadlineExceeded, stats.Elapsed.Seconds(), stats.PlansPerSec())
		return
	}
	r.body = append(r.body, `],"converted":`...)
	r.body = strconv.AppendInt(r.body, int64(stats.Converted), 10)
	r.body = append(r.body, `,"errors":`...)
	r.body = strconv.AppendInt(r.body, int64(errs), 10)
	if deadlineExceeded {
		r.body = append(r.body, `,"deadline_exceeded":true`...)
	}
	r.body = append(r.body, `,"elapsed_seconds":`...)
	r.body = jsonenc.AppendFloat(r.body, stats.Elapsed.Seconds())
	r.body = append(r.body, `,"plans_per_sec":`...)
	r.body = jsonenc.AppendFloat(r.body, stats.PlansPerSec())
	r.body = append(r.body, '}')
}

// batchBody is a batch response under construction: one wireBuf per
// pipeline chunk, filled by the worker that converts the chunk's
// records while each plan is still in its arena.
type batchBody struct {
	n      int
	binary bool
	chunks []*wireBuf
}

func newBatchBody(n int, binary bool) *batchBody {
	return &batchBody{n: n, binary: binary, chunks: make([]*wireBuf, (n+pipeline.ChunkSize-1)/pipeline.ChunkSize)}
}

// emit is the batch's pipeline.Sink. The first chunk opens the body.
func (b *batchBody) emit(c, i int, p *core.Plan, err error) {
	if b.chunks[c] == nil {
		b.chunks[c] = getWireBuf(b.binary)
		if c == 0 {
			b.chunks[c].head(b.n)
		}
	}
	b.chunks[c].item(i, p, err)
}
