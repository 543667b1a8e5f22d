package convert

// JSONReader is the converters' JSON scanner (jsonScan) exposed for
// reading small documents of a fixed shape, such as the plan service's
// request and response bodies, in one pass over the input: no token
// stream, no reflection, and escape-free strings returned as substrings
// of the input. It accepts exactly the JSON grammar, like the
// converters. Two things differ from encoding/json's struct decoding:
// the caller matches object keys with exact case, and strings with
// invalid UTF-8 pass through unchanged instead of becoming U+FFFD.
//
// A reader walks one value: the caller consumes each value with exactly
// one of Object, Array, String, Raw or Skip (after Null, if null is
// allowed there), and finishes with End.
type JSONReader struct{ sc jsonScan }

// NewJSONReader returns a reader over s.
func NewJSONReader(s string) JSONReader { return JSONReader{sc: newJSONScan(s)} }

// Null consumes a null literal if one is next and reports whether it did.
func (r *JSONReader) Null() bool {
	if r.sc.peek() != 'n' {
		return false
	}
	return r.sc.scanLiteral("null") == nil
}

// Object consumes an object, calling field once per key in input order;
// field must consume the key's value. A null is consumed without calling
// field, as encoding/json leaves a struct alone on null.
//
//uplan:hotpath
func (r *JSONReader) Object(field func(key string) error) error {
	if r.Null() {
		return nil
	}
	if r.sc.peek() != '{' {
		return r.sc.errf("want an object")
	}
	return r.sc.scanObject(field)
}

// Array consumes an array, calling elem once per element; elem must
// consume the element. The caller checks Null first when null is allowed.
//
//uplan:hotpath
func (r *JSONReader) Array(elem func(i int) error) error {
	if r.sc.peek() != '[' {
		return r.sc.errf("want an array")
	}
	return r.sc.scanArray(elem)
}

// String consumes a string into *dst. A null is consumed and leaves *dst
// unchanged, as encoding/json does.
//
//uplan:hotpath
func (r *JSONReader) String(dst *string) error {
	if r.Null() {
		return nil
	}
	if r.sc.peek() != '"' {
		return r.sc.errf("want a string")
	}
	s, err := r.sc.scanString()
	if err != nil {
		return err
	}
	*dst = s
	return nil
}

// Raw consumes any value and returns its exact source text, as
// json.RawMessage keeps it.
func (r *JSONReader) Raw() (string, error) {
	r.sc.skipSpace()
	start := r.sc.pos
	if err := r.sc.skipValue(); err != nil {
		return "", err
	}
	return r.sc.s[start:r.sc.pos], nil
}

// Skip consumes and validates any value.
func (r *JSONReader) Skip() error { return r.sc.skipValue() }

// End requires that nothing but whitespace follows the value read.
func (r *JSONReader) End() error { return r.sc.requireEOF("the JSON value") }
