package flightrec

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"strconv"
)

// Log is one complete recording: the header plus the ordered event
// stream.
type Log struct {
	Meta   Meta
	Events []Event
}

// WriteNDJSON streams the recording as newline-delimited JSON: the
// header object on the first line, then one event per line. Each event
// line is built by appendEvent straight into the write buffer; its bytes
// are the ones json.Encoder would write.
func (l *Log) WriteNDJSON(w io.Writer) error {
	bw := bufio.NewWriterSize(w, 1<<16)
	if err := json.NewEncoder(bw).Encode(l.Meta); err != nil {
		return err
	}
	for i := range l.Events {
		if _, err := bw.Write(appendEvent(bw.AvailableBuffer(), &l.Events[i])); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// ReadNDJSON parses a recording written by WriteNDJSON, validating the
// schema tag before touching the event stream.
func ReadNDJSON(r io.Reader) (*Log, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 1<<20)
	if !sc.Scan() {
		if err := sc.Err(); err != nil {
			return nil, err
		}
		return nil, fmt.Errorf("flightrec: empty recording")
	}
	var l Log
	if err := json.Unmarshal(sc.Bytes(), &l.Meta); err != nil {
		return nil, fmt.Errorf("flightrec: bad header: %w", err)
	}
	if l.Meta.Schema != Schema {
		return nil, fmt.Errorf("flightrec: schema %q, want %q", l.Meta.Schema, Schema)
	}
	details := make(map[string]string)
	for line := 2; sc.Scan(); line++ {
		if len(sc.Bytes()) == 0 {
			continue
		}
		e, ok := parseEvent(sc.Bytes(), details)
		if !ok {
			if err := json.Unmarshal(sc.Bytes(), &e); err != nil {
				return nil, fmt.Errorf("flightrec: line %d: %w", line, err)
			}
		}
		l.Events = append(l.Events, e)
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	return &l, nil
}

// ReadFile loads a recording from disk.
func ReadFile(path string) (*Log, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	l, err := ReadNDJSON(f)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return l, nil
}

// Checksums returns the log's checksum events in stream order.
func (l *Log) Checksums() []Event {
	var out []Event
	for _, e := range l.Events {
		if e.Kind == KindChecksum {
			out = append(out, e)
		}
	}
	return out
}

// CountKind returns how many events have the given kind.
func (l *Log) CountKind(k Kind) int {
	n := 0
	for i := range l.Events {
		if l.Events[i].Kind == k {
			n++
		}
	}
	return n
}

// appendEvent appends e's NDJSON line, newline included, to dst: the
// bytes json.Encoder writes for an Event (field order, omitempty, and
// HTML-safe string escaping all match).
func appendEvent(dst []byte, e *Event) []byte {
	dst = append(dst, `{"c":`...)
	dst = strconv.AppendInt(dst, e.Cycle, 10)
	dst = append(dst, `,"sm":`...)
	dst = strconv.AppendInt(dst, int64(e.SM), 10)
	dst = append(dst, `,"k":`...)
	dst = appendString(dst, e.Kind.String())
	dst = append(dst, `,"w":`...)
	dst = strconv.AppendInt(dst, int64(e.Warp), 10)
	dst = append(dst, `,"pc":`...)
	dst = strconv.AppendInt(dst, int64(e.PC), 10)
	if e.A != 0 {
		dst = append(dst, `,"a":`...)
		dst = strconv.AppendUint(dst, e.A, 10)
	}
	if e.B != 0 {
		dst = append(dst, `,"b":`...)
		dst = strconv.AppendUint(dst, e.B, 10)
	}
	if e.Detail != "" {
		dst = append(dst, `,"d":`...)
		dst = appendString(dst, e.Detail)
	}
	return append(dst, "}\n"...)
}

// plainByte reports whether encoding/json writes b unescaped inside a
// string: printable ASCII other than the quote, the backslash, and the
// HTML-sensitive <, > and &.
func plainByte(b byte) bool {
	return b >= 0x20 && b < 0x7f && b != '"' && b != '\\' && b != '<' && b != '>' && b != '&'
}

// appendString appends s as a JSON string. Plain strings are copied
// verbatim; anything else takes encoding/json's escaping.
func appendString(dst []byte, s string) []byte {
	for i := 0; i < len(s); i++ {
		if !plainByte(s[i]) {
			q, _ := json.Marshal(s) // a string always marshals
			return append(dst, q...)
		}
	}
	dst = append(dst, '"')
	dst = append(dst, s...)
	return append(dst, '"')
}

// maxInterned bounds the distinct details one ReadNDJSON call shares.
const maxInterned = 1 << 12

// parseEvent decodes one event line if it is spelled exactly as
// appendEvent writes it (less the newline). Any other spelling — other
// key order or spacing, escapes, zero-valued omitempty fields, unknown
// keys, out-of-range numbers — reports false, and the caller falls back
// to encoding/json, so both paths agree on every line the fast one
// accepts. details interns Detail strings across the lines of one log.
func parseEvent(line []byte, details map[string]string) (Event, bool) {
	var e Event
	p := lineParser{b: line}
	if !p.lit(`{"c":`) || !p.signed(&e.Cycle) ||
		!p.lit(`,"sm":`) || !p.signedInt(&e.SM) ||
		!p.lit(`,"k":`) || !p.kind(&e.Kind) ||
		!p.lit(`,"w":`) || !p.signedInt(&e.Warp) ||
		!p.lit(`,"pc":`) || !p.signedInt(&e.PC) {
		return Event{}, false
	}
	if p.lit(`,"a":`) && !p.nonzero(&e.A) {
		return Event{}, false
	}
	if p.lit(`,"b":`) && !p.nonzero(&e.B) {
		return Event{}, false
	}
	if p.lit(`,"d":`) {
		raw, ok := p.plainString()
		if !ok || len(raw) == 0 {
			return Event{}, false
		}
		d, ok := details[string(raw)]
		if !ok {
			d = string(raw)
			if len(details) < maxInterned {
				details[d] = d
			}
		}
		e.Detail = d
	}
	if !p.lit("}") || p.i != len(p.b) {
		return Event{}, false
	}
	return e, true
}

// lineParser is a cursor over one canonical event line.
type lineParser struct {
	b []byte
	i int
}

// lit consumes s if the input continues with it.
func (p *lineParser) lit(s string) bool {
	if len(p.b)-p.i < len(s) || string(p.b[p.i:p.i+len(s)]) != s {
		return false
	}
	p.i += len(s)
	return true
}

// unsigned consumes a canonical unsigned decimal: no sign, no leading
// zeros, no overflow.
func (p *lineParser) unsigned(v *uint64) bool {
	start := p.i
	var n uint64
	for ; p.i < len(p.b) && '0' <= p.b[p.i] && p.b[p.i] <= '9'; p.i++ {
		d := uint64(p.b[p.i] - '0')
		if n > (math.MaxUint64-d)/10 {
			return false
		}
		n = n*10 + d
	}
	if p.i == start || (p.b[start] == '0' && p.i-start > 1) {
		return false
	}
	*v = n
	return true
}

// nonzero consumes a canonical nonzero unsigned decimal (omitempty
// never writes a zero).
func (p *lineParser) nonzero(v *uint64) bool { return p.unsigned(v) && *v != 0 }

// signed consumes a canonical signed decimal ("-0" is not canonical).
func (p *lineParser) signed(v *int64) bool {
	neg := p.lit("-")
	var u uint64
	if !p.unsigned(&u) {
		return false
	}
	switch {
	case neg && (u == 0 || u > 1<<63):
		return false
	case neg:
		*v = int64(-u)
	case u > math.MaxInt64:
		return false
	default:
		*v = int64(u)
	}
	return true
}

// signedInt consumes a canonical signed decimal that fits an int.
func (p *lineParser) signedInt(v *int) bool {
	var n int64
	if !p.signed(&n) || int64(int(n)) != n {
		return false
	}
	*v = int(n)
	return true
}

// plainString consumes a quoted string of plain bytes (see plainByte)
// and returns its contents.
func (p *lineParser) plainString() ([]byte, bool) {
	if !p.lit(`"`) {
		return nil, false
	}
	start := p.i
	for ; p.i < len(p.b) && p.b[p.i] != '"'; p.i++ {
		if !plainByte(p.b[p.i]) {
			return nil, false
		}
	}
	if p.i == len(p.b) {
		return nil, false
	}
	p.i++
	return p.b[start : p.i-1], true
}

// kind consumes a quoted wire name of a known Kind.
func (p *lineParser) kind(k *Kind) bool {
	raw, ok := p.plainString()
	if !ok {
		return false
	}
	for i, n := range kindNames {
		if string(raw) == n {
			*k = Kind(i)
			return true
		}
	}
	return false
}
