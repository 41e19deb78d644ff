package sweep

import (
	"encoding/json"
	"fmt"
	"strconv"
)

// This file is the one codec of a result stream's lines: AppendEvent
// writes what the server sends (the NDJSON line and the SSE data field
// alike) and ParseLine reads what the client receives. Both agree with
// encoding/json on the Event, Cell and View declarations in sweep.go —
// AppendEvent byte for byte with json.Marshal, ParseLine value for value
// with json.Unmarshal, which FuzzEventLine and FuzzParseLine hold them
// to — without reflection and without scanning a line twice.

// AppendEvent appends the JSON encoding of ev to dst: the bytes
// json.Marshal(ev) produces, given a Result in the form the result cache
// hands out (compact, HTML-escaped). The result is spliced in as it is,
// where json.Marshal would parse and copy it once more per event.
func AppendEvent(dst []byte, ev Event) []byte {
	dst = strconv.AppendInt(append(dst, `{"seq":`...), int64(ev.Seq), 10)
	dst = strconv.AppendInt(append(dst, `,"cell":`...), int64(ev.Cell), 10)
	dst = AppendString(append(dst, `,"status":`...), string(ev.Status))
	dst = AppendString(append(dst, `,"key":`...), ev.Key)
	dst = appendCell(append(dst, `,"spec":`...), ev.Spec)
	if len(ev.Result) > 0 {
		dst = append(append(dst, `,"result":`...), ev.Result...)
	}
	if ev.Error != "" {
		dst = AppendString(append(dst, `,"error":`...), ev.Error)
	}
	return append(dst, '}')
}

// appendCell appends c member by member in declaration order, under
// Cell's omitempty rules.
func appendCell(dst []byte, c Cell) []byte {
	dst = append(dst, `{"mix":`...)
	if c.Mix == nil {
		dst = append(dst, "null"...)
	} else {
		dst = append(dst, '[')
		for i, name := range c.Mix {
			if i > 0 {
				dst = append(dst, ',')
			}
			dst = AppendString(dst, name)
		}
		dst = append(dst, ']')
	}
	dst = AppendString(append(dst, `,"controller":`...), c.Controller)
	if c.Scale != "" {
		dst = AppendString(append(dst, `,"scale":`...), c.Scale)
	}
	if c.Seed != 0 {
		dst = strconv.AppendUint(append(dst, `,"seed":`...), c.Seed, 10)
	}
	if c.Target != 0 {
		dst = strconv.AppendUint(append(dst, `,"target":`...), c.Target, 10)
	}
	if c.Step != 0 {
		dst = strconv.AppendUint(append(dst, `,"step":`...), c.Step, 10)
	}
	if c.DRAMMTps != 0 {
		dst = strconv.AppendInt(append(dst, `,"dram_mtps":`...), int64(c.DRAMMTps), 10)
	}
	if c.DRAMChannels != 0 {
		dst = strconv.AppendInt(append(dst, `,"dram_channels":`...), int64(c.DRAMChannels), 10)
	}
	return append(dst, '}')
}

// AppendString appends s as a JSON string. Printable ASCII that
// json.Marshal passes through goes in directly; a string holding
// anything else (an escape, HTML's <>&, a non-ASCII rune, a broken
// UTF-8 byte) is json.Marshal's to spell.
func AppendString(dst []byte, s string) []byte {
	for i := 0; i < len(s); i++ {
		switch c := s[i]; {
		case c < 0x20, c >= 0x7f, c == '"', c == '\\', c == '<', c == '>', c == '&':
			b, _ := json.Marshal(s) // a string always encodes
			return append(dst, b...)
		}
	}
	return append(append(append(dst, '"'), s...), '"')
}

// Line is one decoded line of a result stream: an event, or — End set —
// the terminal {"end":true,"sweep":…} marker carrying the sweep's view.
type Line struct {
	End   bool
	Sweep *View
	Event Event
}

// ParseLine decodes one line of a result stream in a single validating
// pass. It accepts what json.Unmarshal accepts for
//
//	struct {
//		End   bool  `json:"end"`
//		Sweep *View `json:"sweep"`
//		Event
//	}
//
// and decodes it to the same value: members in any order, unknown
// members skipped, a repeated member decoded over the earlier one, null
// leaving a scalar as it was, result kept as the exact bytes of its
// value (copied once), and bad syntax anywhere in the line — inside
// result or a skipped member too — a wrong-typed member, a non-integer
// number or trailing bytes an error. The one difference: member names
// match exactly, not case-insensitively, so "Cell" is an unknown member.
// The once-per-stream sweep view is json.Unmarshal's to decode, and so
// is a string holding an escape or a non-ASCII byte.
func ParseLine(line []byte) (Line, error) {
	p := lineParser{b: line}
	var l Line
	var err error
	if p.space(); p.peek() == 'n' {
		err = p.literal("null") // decodes to nothing, as it does for a struct
	} else {
		err = p.object(func(key []byte) error { return p.lineMember(&l, key) })
	}
	if err == nil {
		if p.space(); p.i < len(p.b) {
			err = p.errorf("trailing bytes after the line's value")
		}
	}
	if err != nil {
		return Line{}, err
	}
	return l, nil
}

// maxLineDepth is encoding/json's nesting limit, so a line it would
// refuse as too deep is refused here too (and recursion stays bounded).
const maxLineDepth = 10000

// lineParser is a cursor over one line. Every method leaves i just past
// what it consumed, or returns an error; none reads past len(b).
type lineParser struct {
	b     []byte
	i     int
	depth int
}

func (p *lineParser) errorf(format string, a ...any) error {
	return fmt.Errorf("stream line, byte %d: %s", p.i, fmt.Sprintf(format, a...))
}

// peek returns the byte at the cursor, or 0 at the end of the line (a
// byte no JSON value starts with).
func (p *lineParser) peek() byte {
	if p.i < len(p.b) {
		return p.b[p.i]
	}
	return 0
}

func (p *lineParser) space() {
	b, i := p.b, p.i
	for i < len(b) && (b[i] == ' ' || b[i] == '\t' || b[i] == '\r' || b[i] == '\n') {
		i++
	}
	p.i = i
}

func (p *lineParser) literal(word string) error {
	if len(p.b)-p.i < len(word) || string(p.b[p.i:p.i+len(word)]) != word {
		return p.errorf("invalid literal, want %s", word)
	}
	p.i += len(word)
	return nil
}

func (p *lineParser) lineMember(l *Line, key []byte) error {
	ev := &l.Event
	switch string(key) {
	case "end":
		return p.boolean(&l.End)
	case "sweep":
		raw, err := p.raw()
		if err != nil {
			return err
		}
		if raw[0] == 'n' {
			l.Sweep = nil
			return nil
		}
		if l.Sweep == nil {
			l.Sweep = new(View)
		}
		if err := json.Unmarshal(raw, l.Sweep); err != nil {
			return fmt.Errorf("stream line: sweep view: %w", err)
		}
		return nil
	case "seq":
		return p.integer(&ev.Seq)
	case "cell":
		return p.integer(&ev.Cell)
	case "status":
		return p.str((*string)(&ev.Status), string(CellDeduped), string(CellDone), string(CellFailed))
	case "key":
		return p.str(&ev.Key)
	case "spec":
		if p.peek() == 'n' {
			return p.literal("null")
		}
		return p.object(func(key []byte) error { return p.cellMember(&ev.Spec, key) })
	case "result":
		raw, err := p.raw()
		ev.Result = append(ev.Result[:0], raw...)
		return err
	case "error":
		return p.str(&ev.Error)
	}
	_, err := p.raw()
	return err
}

func (p *lineParser) cellMember(c *Cell, key []byte) error {
	switch string(key) {
	case "mix":
		return p.strings(&c.Mix)
	case "controller":
		return p.str(&c.Controller)
	case "scale":
		return p.str(&c.Scale)
	case "seed":
		return p.unsigned(&c.Seed)
	case "target":
		return p.unsigned(&c.Target)
	case "step":
		return p.unsigned(&c.Step)
	case "dram_mtps":
		return p.integer(&c.DRAMMTps)
	case "dram_channels":
		return p.integer(&c.DRAMChannels)
	}
	_, err := p.raw()
	return err
}

// sequence walks the object or array at the cursor, from its opening
// bracket (which the caller has seen) to closer, calling item with the
// cursor on each member or element, and returns how many there were.
func (p *lineParser) sequence(closer byte, item func(i int) error) (int, error) {
	if p.depth++; p.depth > maxLineDepth {
		return 0, p.errorf("exceeded max depth")
	}
	p.i++
	if p.space(); p.peek() == closer {
		p.i++
		p.depth--
		return 0, nil
	}
	for n := 0; ; {
		p.space()
		if err := item(n); err != nil {
			return n, err
		}
		n++
		p.space()
		switch p.peek() {
		case ',':
			p.i++
		case closer:
			p.i++
			p.depth--
			return n, nil
		default:
			return n, p.errorf("want ',' or '%c'", closer)
		}
	}
}

// object walks the object at the cursor, calling member for each name
// with the cursor on that member's value; member consumes the value.
func (p *lineParser) object(member func(key []byte) error) error {
	if p.peek() != '{' {
		return p.errorf("want an object")
	}
	_, err := p.sequence('}', func(int) error {
		if p.peek() != '"' {
			return p.errorf("want a member name")
		}
		key, plain, err := p.stringToken()
		if err != nil {
			return err
		}
		if !plain { // a name may be spelled with escapes: "c\u0065ll"
			var s string
			if err := json.Unmarshal(p.b[p.i-len(key)-2:p.i], &s); err != nil {
				return err
			}
			key = []byte(s)
		}
		if p.space(); p.peek() != ':' {
			return p.errorf("want ':' after a member name")
		}
		p.i++
		p.space()
		return member(key)
	})
	return err
}

// raw validates the value at the cursor, whatever it is, and returns
// its bytes, aliasing the line.
func (p *lineParser) raw() ([]byte, error) {
	start := p.i
	err := p.skip()
	return p.b[start:p.i], err
}

func (p *lineParser) skip() error {
	switch p.peek() {
	case '{':
		return p.object(func([]byte) error { return p.skip() })
	case '[':
		_, err := p.sequence(']', func(int) error { return p.skip() })
		return err
	case '"':
		_, _, err := p.stringToken()
		return err
	case 't':
		return p.literal("true")
	case 'f':
		return p.literal("false")
	case 'n':
		return p.literal("null")
	default:
		_, err := p.number()
		return err
	}
}

// stringToken validates the string at the cursor and returns the bytes
// between its quotes. plain reports that those bytes are the string's
// value as they stand: ASCII with no escape.
func (p *lineParser) stringToken() (body []byte, plain bool, err error) {
	b, start := p.b, p.i+1
	plain = true
	i := start // the cursor in a register: this loop sees most of a line's bytes
	for ; i < len(b); i++ {
		switch c := b[i]; {
		case c == '"':
			p.i = i + 1
			return b[start:i], plain, nil
		case c == '\\':
			plain = false
			if i++; i == len(b) {
				continue // the line ends inside the escape: out of the loop, to its error
			}
			switch b[i] {
			case '"', '\\', '/', 'b', 'f', 'n', 'r', 't':
			case 'u':
				if len(b)-i < 5 || !isHex4(b[i+1:i+5]) {
					p.i = i
					return nil, false, p.errorf(`invalid \u escape`)
				}
				i += 4
			default:
				p.i = i
				return nil, false, p.errorf("invalid escape in a string")
			}
		case c < 0x20:
			p.i = i
			return nil, false, p.errorf("control character in a string")
		case c >= 0x80:
			plain = false
		}
	}
	p.i = len(b)
	return nil, false, p.errorf("unexpected end of line in a string")
}

func isHex4(b []byte) bool {
	for _, c := range b {
		if !('0' <= c && c <= '9' || 'a' <= c && c <= 'f' || 'A' <= c && c <= 'F') {
			return false
		}
	}
	return true
}

// number scans the JSON number at the cursor.
func (p *lineParser) number() ([]byte, error) {
	start := p.i
	if p.peek() == '-' {
		p.i++
	}
	if p.peek() == '0' {
		p.i++
	} else if !p.digits() {
		return nil, p.errorf("invalid value")
	}
	if p.peek() == '.' {
		if p.i++; !p.digits() {
			return nil, p.errorf("invalid number: want a digit after '.'")
		}
	}
	if c := p.peek(); c == 'e' || c == 'E' {
		p.i++
		if c := p.peek(); c == '+' || c == '-' {
			p.i++
		}
		if !p.digits() {
			return nil, p.errorf("invalid number: want a digit in the exponent")
		}
	}
	return p.b[start:p.i], nil
}

// digits consumes a run of digits and reports whether there was one.
func (p *lineParser) digits() bool {
	b, i := p.b, p.i
	for i < len(b) && '0' <= b[i] && b[i] <= '9' {
		i++
	}
	found := i > p.i
	p.i = i
	return found
}

func (p *lineParser) boolean(dst *bool) error {
	switch p.peek() {
	case 't':
		*dst = true
		return p.literal("true")
	case 'f':
		*dst = false
		return p.literal("false")
	case 'n':
		return p.literal("null")
	}
	return p.errorf("want a boolean")
}

// numberOrNull returns the number at the cursor, or nil for a null.
func (p *lineParser) numberOrNull() ([]byte, error) {
	if p.peek() == 'n' {
		return nil, p.literal("null")
	}
	return p.number()
}

func (p *lineParser) integer(dst *int) error {
	num, err := p.numberOrNull()
	if err != nil || num == nil {
		return err
	}
	n, err := strconv.ParseInt(string(num), 10, strconv.IntSize)
	if err != nil {
		return p.errorf("want an integer, have %s", num)
	}
	*dst = int(n)
	return nil
}

func (p *lineParser) unsigned(dst *uint64) error {
	num, err := p.numberOrNull()
	if err != nil || num == nil {
		return err
	}
	n, err := strconv.ParseUint(string(num), 10, 64)
	if err != nil {
		return p.errorf("want an unsigned integer, have %s", num)
	}
	*dst = n
	return nil
}

// str decodes the string at the cursor into dst. A value equal to one
// of known is set to that constant instead of a fresh copy.
func (p *lineParser) str(dst *string, known ...string) error {
	switch p.peek() {
	case 'n':
		return p.literal("null")
	case '"':
	default:
		return p.errorf("want a string")
	}
	body, plain, err := p.stringToken()
	if err != nil {
		return err
	}
	if !plain {
		var s string // not dst itself: what json.Unmarshal is handed moves to the heap
		err := json.Unmarshal(p.b[p.i-len(body)-2:p.i], &s)
		*dst = s
		return err
	}
	for _, k := range known {
		if string(body) == k {
			*dst = k
			return nil
		}
	}
	*dst = string(body)
	return nil
}

// strings decodes the array of strings at the cursor into *dst the way
// encoding/json decodes into a []string that may already hold a value
// (the member was repeated): element by element over what is there, a
// null element leaving its slot as it was.
func (p *lineParser) strings(dst *[]string) error {
	switch p.peek() {
	case 'n':
		*dst = nil
		return p.literal("null")
	case '[':
	default:
		return p.errorf("want an array of strings")
	}
	s := *dst
	n, err := p.sequence(']', func(i int) error {
		if i == len(s) {
			switch {
			case i < cap(s):
				s = s[:i+1]
			case i == 0:
				s = make([]string, 1, 4) // a 4-core mix, the paper's main configuration, in one allocation
			default:
				s = append(s, "")
			}
		}
		return p.str(&s[i])
	})
	if n == 0 {
		s = []string{}
	}
	*dst = s[:n]
	return err
}
