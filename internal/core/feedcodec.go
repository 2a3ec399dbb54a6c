package core

// The JSON the three Fig. 4 feeds and the camera frame record put on the
// broker, written and read without reflection. The bytes are json.Marshal's — HTML-safe string
// escapes, its float format, time.Time as RFC 3339 with nanoseconds — so the
// wire, the broker's byte counters and the dead-letter bodies are the same as
// encoding/json's. The decoder reads only that layout (these field names in
// this order, no whitespace, strings without escapes); anything else, and any
// value the layout cannot carry, goes to encoding/json, which then decides
// the result and the error text. encoding/json is the oracle in
// feedcodec_test.go.

import (
	"encoding/json"
	"math"
	"strconv"
	"time"
	"unicode/utf8"

	"repro/internal/citydata"
	"repro/internal/geo"
)

// jsonAppender appends one record's JSON to b. A value json.Marshal rejects
// (NaN, ±Inf, a time RFC 3339 cannot carry) sets bad, and the caller hands
// the record to json.Marshal for its error.
type jsonAppender struct {
	b   []byte
	bad bool
}

// marshalSlow is the record's encoding when the appender saw a value it does
// not write: json.Marshal's, error included.
func marshalSlow(dst []byte, v any) ([]byte, error) {
	out, err := json.Marshal(v)
	if err != nil {
		return dst, err
	}
	return append(dst, out...), nil
}

const hexDigits = "0123456789abcdef"

// str writes s as encoding/json does with HTML escaping on: <, > and &
// become \u003c, \u003e and \u0026, control bytes are escaped, invalid UTF-8
// becomes \ufffd, and U+2028/U+2029 are escaped.
func (w *jsonAppender) str(s string) {
	b := append(w.b, '"')
	start := 0
	for i := 0; i < len(s); {
		if c := s[i]; c < utf8.RuneSelf {
			if c >= 0x20 && c != '"' && c != '\\' && c != '<' && c != '>' && c != '&' {
				i++
				continue
			}
			b = append(b, s[start:i]...)
			switch c {
			case '"', '\\':
				b = append(b, '\\', c)
			case '\b':
				b = append(b, '\\', 'b')
			case '\f':
				b = append(b, '\\', 'f')
			case '\n':
				b = append(b, '\\', 'n')
			case '\r':
				b = append(b, '\\', 'r')
			case '\t':
				b = append(b, '\\', 't')
			default:
				b = append(b, '\\', 'u', '0', '0', hexDigits[c>>4], hexDigits[c&0xF])
			}
			i++
			start = i
			continue
		}
		r, size := utf8.DecodeRuneInString(s[i:])
		switch {
		case r == utf8.RuneError && size == 1:
			b = append(b, s[start:i]...)
			b = append(b, `\ufffd`...)
		case r == '\u2028' || r == '\u2029':
			b = append(b, s[start:i]...)
			b = append(b, '\\', 'u', '2', '0', '2', hexDigits[r&0xF])
		default:
			i += size
			continue
		}
		i += size
		start = i
	}
	b = append(b, s[start:]...)
	w.b = append(b, '"')
}

// float writes f in json.Marshal's format: the shortest 'f' form, 'e' below
// 1e-6 or from 1e21 up, with a one-digit negative exponent unpadded.
func (w *jsonAppender) float(f float64) {
	if math.IsInf(f, 0) || math.IsNaN(f) {
		w.bad = true
		return
	}
	format := byte('f')
	if abs := math.Abs(f); abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	b := strconv.AppendFloat(w.b, f, format, -1, 64)
	if n := len(b); format == 'e' && n >= 4 && b[n-4] == 'e' && b[n-3] == '-' && b[n-2] == '0' {
		b[n-2] = b[n-1]
		b = b[:n-1]
	}
	w.b = b
}

func (w *jsonAppender) int(n int) { w.b = strconv.AppendInt(w.b, int64(n), 10) }

func (w *jsonAppender) bool(v bool) { w.b = strconv.AppendBool(w.b, v) }

// time writes t as Time.MarshalJSON does, and sets bad where MarshalJSON
// refuses t: a year that is not four digits wide, or a zone offset whose
// hour field is 24 or more. The checks read the formatted bytes, as
// MarshalJSON's do.
func (w *jsonAppender) time(t time.Time) {
	start := len(w.b) + 1
	b := t.AppendFormat(append(w.b, '"'), time.RFC3339Nano)
	if b[start+len("9999")] != '-' {
		w.bad = true
		return
	}
	if n := len(b); b[n-1] != 'Z' {
		if c := b[n-len("Z07:00")]; '0' <= c && c <= '9' || 10*(b[n-5]-'0')+(b[n-4]-'0') >= 24 {
			w.bad = true
			return
		}
	}
	w.b = append(b, '"')
}

func (w *jsonAppender) point(p geo.Point) {
	w.b = append(w.b, `{"lat":`...)
	w.float(p.Lat)
	w.b = append(w.b, `,"lon":`...)
	w.float(p.Lon)
	w.b = append(w.b, '}')
}

func appendTweet(dst []byte, tw *citydata.Tweet) ([]byte, error) {
	w := jsonAppender{b: append(dst, `{"id":`...)}
	w.str(tw.ID)
	w.b = append(w.b, `,"author":`...)
	w.str(tw.Author)
	w.b = append(w.b, `,"text":`...)
	w.str(tw.Text)
	w.b = append(w.b, `,"time":`...)
	w.time(tw.Time)
	w.b = append(w.b, `,"location":`...)
	w.point(tw.Location)
	if w.bad {
		return marshalSlow(dst, tw)
	}
	return append(w.b, '}'), nil
}

func appendWaze(dst []byte, r *citydata.WazeReport) ([]byte, error) {
	w := jsonAppender{b: append(dst, `{"id":`...)}
	w.str(r.ID)
	w.b = append(w.b, `,"kind":`...)
	w.str(string(r.Kind))
	w.b = append(w.b, `,"severity":`...)
	w.int(r.Severity)
	w.b = append(w.b, `,"location":`...)
	w.point(r.Location)
	w.b = append(w.b, `,"time":`...)
	w.time(r.Time)
	w.b = append(w.b, `,"speedKmh":`...)
	w.float(r.SpeedKmh)
	w.b = append(w.b, `,"userReport":`...)
	w.bool(r.UserReport)
	if w.bad {
		return marshalSlow(dst, r)
	}
	return append(w.b, '}'), nil
}

func appendCall911(dst []byte, c *citydata.Call911) ([]byte, error) {
	w := jsonAppender{b: append(dst, `{"id":`...)}
	w.str(c.ID)
	w.b = append(w.b, `,"category":`...)
	w.str(c.Category)
	w.b = append(w.b, `,"location":`...)
	w.point(c.Location)
	w.b = append(w.b, `,"time":`...)
	w.time(c.Time)
	w.b = append(w.b, `,"priority":`...)
	w.int(c.Priority)
	if w.bad {
		return marshalSlow(dst, c)
	}
	return append(w.b, '}'), nil
}

func appendFrame(dst []byte, f *FrameEvent) ([]byte, error) {
	w := jsonAppender{b: append(dst, `{"cameraId":`...)}
	w.str(f.CameraID)
	w.b = append(w.b, `,"seq":`...)
	w.int(f.Seq)
	w.b = append(w.b, `,"class":`...)
	w.str(f.Class)
	w.b = append(w.b, `,"confidence":`...)
	w.float(f.Confidence)
	w.b = append(w.b, `,"rawBytes":`...)
	w.int(f.RawBytes)
	w.b = append(w.b, `,"featureBytes":`...)
	w.int(f.FeatureBytes)
	w.b = append(w.b, `,"priority":`...)
	w.int(f.Priority)
	if w.bad {
		// A copy goes into the interface, so f itself stays off the heap.
		return marshalSlow(dst, *f)
	}
	return append(w.b, '}'), nil
}

// jsonCursor reads one record in the appender's layout. The first byte that
// does not fit clears ok; every later read is then a no-op, and the caller
// hands the input to json.Unmarshal.
type jsonCursor struct {
	b  []byte
	i  int
	ok bool
}

// lit consumes the exact bytes s.
func (c *jsonCursor) lit(s string) {
	if !c.ok || len(c.b)-c.i < len(s) || string(c.b[c.i:c.i+len(s)]) != s {
		c.ok = false
		return
	}
	c.i += len(s)
}

// strToken consumes a string with no escape and no control byte that is
// valid UTF-8, and returns it with its quotes.
func (c *jsonCursor) strToken() []byte {
	if !c.ok || c.i >= len(c.b) || c.b[c.i] != '"' {
		c.ok = false
		return nil
	}
	ascii := true
	for j := c.i + 1; j < len(c.b); j++ {
		b := c.b[j]
		if b == '"' {
			tok := c.b[c.i : j+1]
			if ascii || utf8.Valid(tok) {
				c.i = j + 1
				return tok
			}
			break
		}
		if b < 0x20 || b == '\\' {
			break
		}
		if b >= utf8.RuneSelf {
			ascii = false
		}
	}
	c.ok = false
	return nil
}

func (c *jsonCursor) str() string {
	tok := c.strToken()
	if tok == nil {
		return ""
	}
	return string(tok[1 : len(tok)-1])
}

// number consumes one token of the JSON number grammar.
func (c *jsonCursor) number() []byte {
	if !c.ok {
		return nil
	}
	b, i := c.b, c.i
	digits := func() bool {
		j := i
		for i < len(b) && '0' <= b[i] && b[i] <= '9' {
			i++
		}
		return i > j
	}
	if i < len(b) && b[i] == '-' {
		i++
	}
	if i < len(b) && b[i] == '0' {
		i++
	} else if !digits() {
		c.ok = false
		return nil
	}
	if i < len(b) && b[i] == '.' {
		i++
		if !digits() {
			c.ok = false
			return nil
		}
	}
	if i < len(b) && (b[i] == 'e' || b[i] == 'E') {
		i++
		if i < len(b) && (b[i] == '+' || b[i] == '-') {
			i++
		}
		if !digits() {
			c.ok = false
			return nil
		}
	}
	tok := b[c.i:i]
	c.i = i
	return tok
}

func (c *jsonCursor) float() float64 {
	tok := c.number()
	if tok == nil {
		return 0
	}
	f, err := strconv.ParseFloat(string(tok), 64)
	if err != nil {
		c.ok = false
	}
	return f
}

func (c *jsonCursor) int() int {
	tok := c.number()
	if tok == nil {
		return 0
	}
	n, err := strconv.ParseInt(string(tok), 10, strconv.IntSize)
	if err != nil {
		c.ok = false
	}
	return int(n)
}

func (c *jsonCursor) bool() bool {
	if c.ok && c.i < len(c.b) && c.b[c.i] == 't' {
		c.lit("true")
		return true
	}
	c.lit("false")
	return false
}

// time hands the string token to Time.UnmarshalJSON, the call encoding/json
// makes for a time.Time field.
func (c *jsonCursor) time() time.Time {
	var t time.Time
	if tok := c.strToken(); tok != nil && t.UnmarshalJSON(tok) != nil {
		c.ok = false
	}
	return t
}

func (c *jsonCursor) point() geo.Point {
	var p geo.Point
	c.lit(`{"lat":`)
	p.Lat = c.float()
	c.lit(`,"lon":`)
	p.Lon = c.float()
	c.lit("}")
	return p
}

// end consumes the closing brace and reports whether the whole input was the
// appender's layout.
func (c *jsonCursor) end() bool {
	c.lit("}")
	return c.ok && c.i == len(c.b)
}

func decodeTweet(data []byte, tw *citydata.Tweet) error {
	c := jsonCursor{b: data, ok: true}
	c.lit(`{"id":`)
	tw.ID = c.str()
	c.lit(`,"author":`)
	tw.Author = c.str()
	c.lit(`,"text":`)
	tw.Text = c.str()
	c.lit(`,"time":`)
	tw.Time = c.time()
	c.lit(`,"location":`)
	tw.Location = c.point()
	if c.end() {
		return nil
	}
	*tw = citydata.Tweet{}
	return json.Unmarshal(data, tw)
}

func decodeWaze(data []byte, r *citydata.WazeReport) error {
	c := jsonCursor{b: data, ok: true}
	c.lit(`{"id":`)
	r.ID = c.str()
	c.lit(`,"kind":`)
	r.Kind = citydata.WazeKind(c.str())
	c.lit(`,"severity":`)
	r.Severity = c.int()
	c.lit(`,"location":`)
	r.Location = c.point()
	c.lit(`,"time":`)
	r.Time = c.time()
	c.lit(`,"speedKmh":`)
	r.SpeedKmh = c.float()
	c.lit(`,"userReport":`)
	r.UserReport = c.bool()
	if c.end() {
		return nil
	}
	*r = citydata.WazeReport{}
	return json.Unmarshal(data, r)
}

func decodeCall911(data []byte, call *citydata.Call911) error {
	c := jsonCursor{b: data, ok: true}
	c.lit(`{"id":`)
	call.ID = c.str()
	c.lit(`,"category":`)
	call.Category = c.str()
	c.lit(`,"location":`)
	call.Location = c.point()
	c.lit(`,"time":`)
	call.Time = c.time()
	c.lit(`,"priority":`)
	call.Priority = c.int()
	if c.end() {
		return nil
	}
	*call = citydata.Call911{}
	return json.Unmarshal(data, call)
}

func decodeFrame(data []byte, f *FrameEvent) error {
	c := jsonCursor{b: data, ok: true}
	c.lit(`{"cameraId":`)
	f.CameraID = c.str()
	c.lit(`,"seq":`)
	f.Seq = c.int()
	c.lit(`,"class":`)
	f.Class = c.str()
	c.lit(`,"confidence":`)
	f.Confidence = c.float()
	c.lit(`,"rawBytes":`)
	f.RawBytes = c.int()
	c.lit(`,"featureBytes":`)
	f.FeatureBytes = c.int()
	c.lit(`,"priority":`)
	f.Priority = c.int()
	if c.end() {
		return nil
	}
	// Unmarshalled into a record of its own, so f itself stays off the heap.
	var slow FrameEvent
	err := json.Unmarshal(data, &slow)
	*f = slow
	return err
}
