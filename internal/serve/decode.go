// Single-pass request decoding. The compute endpoints' bodies are almost
// always machine-written TaskRequests in encoding/json's own spelling:
// canonical keys, plain ASCII strings, ordinary numbers. decodeTaskRequest
// parses exactly that subset without reflection and declines everything
// else, so the caller can hand the same bytes to encoding/json. Whatever
// it accepts decodes to the values encoding/json would produce (FuzzDecode
// pins the parity); whatever it declines keeps the stdlib's status and
// error body, because the stdlib decodes it.
package serve

import (
	"bytes"
	"strconv"

	"sdem/internal/task"
)

// Member bits of the two object shapes; a repeated key declines.
const (
	keyTasks = 1 << iota
	keyScheduler
	keyCores
	keyIncludeSchedule
)

const (
	keyID = 1 << iota
	keyRelease
	keyDeadline
	keyWorkload
	keyName
)

// taskDecoder is a cursor over one request body.
type taskDecoder struct {
	data []byte
	pos  int
}

// decodeTaskRequest fills req from the first JSON value of data and
// reports true, or leaves req zero and reports false when the value falls
// outside the accepted subset: the canonical keys tasks (objects with ID,
// Release, Deadline, Workload and Name), scheduler, cores and
// include_schedule, each at most once; escape-free ASCII strings; numbers
// that strconv parses in range. Bytes after the value are ignored, as
// json.Decoder ignores them. No decoded value aliases data.
//
//sdem:hotpath
func decodeTaskRequest(data []byte, req *TaskRequest) bool {
	d := taskDecoder{data: data}
	if d.request(req) {
		return true
	}
	*req = TaskRequest{}
	return false
}

func (d *taskDecoder) request(req *TaskRequest) bool {
	var seen uint
	for i := 0; ; i++ {
		key, done, ok := d.member(i)
		if !ok || done {
			return ok
		}
		var bit uint
		switch string(key) {
		case "tasks":
			bit, ok = keyTasks, d.tasks(&req.Tasks)
		case "scheduler":
			var s []byte
			s, ok = d.str()
			bit, req.Scheduler = keyScheduler, string(s)
		case "cores":
			bit = keyCores
			req.Cores, ok = d.int()
		case "include_schedule":
			bit = keyIncludeSchedule
			req.IncludeSchedule, ok = d.bool()
		default:
			return false
		}
		if !ok || seen&bit != 0 {
			return false
		}
		seen |= bit
	}
}

// tasks decodes the task array into a slice sized by countObjects.
func (d *taskDecoder) tasks(dst *task.Set) bool {
	if !d.consume('[') {
		return false
	}
	ts := make(task.Set, 0, d.countObjects())
	for i := 0; ; i++ {
		done, ok := d.element(i)
		if !ok {
			return false
		}
		if done {
			*dst = ts
			return true
		}
		ts = append(ts, task.Task{})
		if !d.task(&ts[len(ts)-1]) {
			return false
		}
	}
}

func (d *taskDecoder) task(t *task.Task) bool {
	var seen uint
	for i := 0; ; i++ {
		key, done, ok := d.member(i)
		if !ok || done {
			return ok
		}
		var bit uint
		switch string(key) {
		case "ID":
			bit = keyID
			t.ID, ok = d.int()
		case "Release":
			bit = keyRelease
			t.Release, ok = d.float()
		case "Deadline":
			bit = keyDeadline
			t.Deadline, ok = d.float()
		case "Workload":
			bit = keyWorkload
			t.Workload, ok = d.float()
		case "Name":
			var s []byte
			s, ok = d.str()
			bit, t.Name = keyName, string(s)
		default:
			return false
		}
		if !ok || seen&bit != 0 {
			return false
		}
		seen |= bit
	}
}

// countObjects counts the objects opening directly inside the array whose
// body starts at the cursor, without moving it. Every task of an accepted
// array is one of them, so the count bounds the slice the array fills;
// strings are skipped quote to quote, which is exact for the escape-free
// strings the decoder accepts.
func (d *taskDecoder) countObjects() int {
	n, depth := 0, 0
	rest := d.data[d.pos:]
	for i := 0; i < len(rest); i++ {
		switch rest[i] {
		case '"':
			j := bytes.IndexByte(rest[i+1:], '"')
			if j < 0 {
				return n
			}
			i += j + 1
		case '{':
			if depth == 0 {
				n++
			}
			depth++
		case '}':
			depth--
		case ']':
			if depth == 0 {
				return n
			}
		}
	}
	return n
}

// member advances past the separator before the i-th member of an object
// (the opening brace when i is 0) and past that member's key and colon,
// leaving the cursor on its value. done reports the closing brace instead.
func (d *taskDecoder) member(i int) (key []byte, done, ok bool) {
	d.skipSpace()
	if i == 0 {
		if !d.consume('{') {
			return nil, false, false
		}
		d.skipSpace()
		if d.consume('}') {
			return nil, true, true
		}
	} else if d.consume('}') {
		return nil, true, true
	} else if d.consume(',') {
		d.skipSpace()
	} else {
		return nil, false, false
	}
	if key, ok = d.str(); !ok {
		return nil, false, false
	}
	d.skipSpace()
	if !d.consume(':') {
		return nil, false, false
	}
	d.skipSpace()
	return key, false, true
}

// element advances past the separator before the i-th element of an
// array whose opening bracket is consumed, leaving the cursor on that
// element. done reports the closing bracket instead.
func (d *taskDecoder) element(i int) (done, ok bool) {
	d.skipSpace()
	if d.consume(']') {
		return true, true
	}
	if i > 0 && !d.consume(',') {
		return false, false
	}
	d.skipSpace()
	return false, true
}

func (d *taskDecoder) skipSpace() {
	for d.pos < len(d.data) {
		switch d.data[d.pos] {
		case ' ', '\t', '\n', '\r':
			d.pos++
		default:
			return
		}
	}
}

// consume advances past c when it is the next byte.
func (d *taskDecoder) consume(c byte) bool {
	if d.pos < len(d.data) && d.data[d.pos] == c {
		d.pos++
		return true
	}
	return false
}

// str returns the contents of an escape-free ASCII string (a view into
// data; callers copy what they keep).
func (d *taskDecoder) str() ([]byte, bool) {
	if !d.consume('"') {
		return nil, false
	}
	start := d.pos
	for ; d.pos < len(d.data); d.pos++ {
		switch c := d.data[d.pos]; {
		case c == '"':
			d.pos++
			return d.data[start : d.pos-1], true
		case c < 0x20 || c == '\\' || c >= 0x80:
			return nil, false
		}
	}
	return nil, false
}

// number returns the bytes of a number that matches the JSON grammar
// -?(0|[1-9][0-9]*)(\.[0-9]+)?([eE][+-]?[0-9]+)?.
func (d *taskDecoder) number() ([]byte, bool) {
	start := d.pos
	d.consume('-')
	if !d.consume('0') && d.digits() == 0 {
		return nil, false
	}
	if d.consume('.') && d.digits() == 0 {
		return nil, false
	}
	if d.consume('e') || d.consume('E') {
		if !d.consume('+') {
			d.consume('-')
		}
		if d.digits() == 0 {
			return nil, false
		}
	}
	return d.data[start:d.pos], true
}

// digits advances past a run of decimal digits and returns its length.
func (d *taskDecoder) digits() int {
	start := d.pos
	for d.pos < len(d.data) && '0' <= d.data[d.pos] && d.data[d.pos] <= '9' {
		d.pos++
	}
	return d.pos - start
}

// float parses a number the way encoding/json fills a float64 field.
func (d *taskDecoder) float() (float64, bool) {
	b, ok := d.number()
	if !ok {
		return 0, false
	}
	f, err := strconv.ParseFloat(string(b), 64)
	return f, err == nil
}

// int parses a number the way encoding/json fills an int field: a
// fraction or exponent is a type error, so it declines.
func (d *taskDecoder) int() (int, bool) {
	b, ok := d.number()
	if !ok {
		return 0, false
	}
	n, err := strconv.ParseInt(string(b), 10, strconv.IntSize)
	return int(n), err == nil
}

func (d *taskDecoder) bool() (bool, bool) {
	switch {
	case d.literal("true"):
		return true, true
	case d.literal("false"):
		return false, true
	}
	return false, false
}

// literal advances past lit when the input continues with it.
func (d *taskDecoder) literal(lit string) bool {
	if len(d.data)-d.pos >= len(lit) && string(d.data[d.pos:d.pos+len(lit)]) == lit {
		d.pos += len(lit)
		return true
	}
	return false
}
