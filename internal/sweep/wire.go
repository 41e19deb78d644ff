package sweep

import (
	"encoding/json"
	"fmt"
	"strconv"
)

// This file is the one codec of a result stream's lines: AppendEvent
// writes what the server sends (one NDJSON line) and ParseLine reads
// what the client receives. Both agree with
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
	dst = AppendCell(append(dst, `,"spec":`...), ev.Spec)
	if len(ev.Result) > 0 {
		dst = append(append(dst, `,"result":`...), ev.Result...)
	}
	if ev.Error != "" {
		dst = AppendString(append(dst, `,"error":`...), ev.Error)
	}
	return append(dst, '}')
}

// AppendCell appends the JSON encoding of c, the bytes json.Marshal(c)
// produces: member by member in declaration order, under Cell's
// omitempty rules.
func AppendCell(dst []byte, c Cell) []byte {
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

// ParseLine decodes one line of a result stream into *l, in a single
// validating pass. It accepts what json.Unmarshal accepts for
//
//	struct {
//		End   bool  `json:"end"`
//		Sweep *View `json:"sweep"`
//		Event
//	}
//
// and decodes it to the same value, as if into a zero Line (on an error
// *l is the zero Line): members in any order, unknown
// members skipped, a repeated member decoded over the earlier one, null
// leaving a scalar as it was, result kept as the exact bytes of its
// value (copied once), and bad syntax anywhere in the line — inside
// result or a skipped member too — a wrong-typed member, a non-integer
// number or trailing bytes an error. The one difference: member names
// match exactly, not case-insensitively, so "Cell" is an unknown member.
// The once-per-stream sweep view is json.Unmarshal's to decode, and so
// is a string holding an escape or a non-ASCII byte.
func ParseLine(line []byte, l *Line) error { return parse(line, l, nil) }

// Decoder reads the lines of one result stream in order: ParseLine with
// the strings of the previous event at hand. A mix name (by its place in
// the mix), a controller or a scale with the same bytes as in that event
// is that event's string, not a new copy: a grid's cells stream in runs
// that share all three, so a warm line allocates little beyond its key
// and its result. What a line decodes to is ParseLine's. The zero
// Decoder is ready to use; it is not safe for concurrent use.
type Decoder struct {
	mix        [maxRememberedMix]string
	controller string
	scale      string
}

// maxRememberedMix is how many of a mix's names a Decoder remembers: the
// server's default core limit. Names past it are copied every time.
const maxRememberedMix = 16

// Parse decodes the stream's next line into *l, as ParseLine does.
func (d *Decoder) Parse(line []byte, l *Line) error { return parse(line, l, d) }

// parse is ParseLine, remembering strings in d unless it is nil.
func parse(line []byte, l *Line, d *Decoder) error {
	p := lineParser{b: line, d: d}
	*l = Line{}
	var err error
	if p.space(); p.peek() == 'n' {
		err = p.literal("null") // decodes to nothing, as it does for a struct
	} else {
		err = p.line(l)
	}
	if err == nil {
		if p.space(); p.i < len(p.b) {
			err = p.errorf("trailing bytes after the line's value")
		}
	}
	if err != nil {
		*l = Line{}
	}
	return err
}

// maxLineDepth is encoding/json's nesting limit, so a line it would
// refuse as too deep is refused here too.
const maxLineDepth = 10000

// lineParser is a cursor over one line. Every method leaves i just past
// what it consumed, or returns an error; none reads past len(b). depth
// counts the objects and arrays the cursor is inside; d, when set, is the
// stream's Decoder.
type lineParser struct {
	b     []byte
	i     int
	depth int
	d     *Decoder
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

func (p *lineParser) space() { p.i = skipSpace(p.b, p.i) }

func (p *lineParser) literal(word string) error {
	end, fault := scanWord(p.b, p.i, word)
	if fault != "" {
		return p.errorf("%s", fault)
	}
	p.i = end
	return nil
}

// open steps into the object or array whose opening bracket is at the
// cursor, one level deeper, and reports whether it holds anything: when
// closer follows at once, open steps out again past it and reports
// false. Otherwise the cursor is on the first member or element.
func (p *lineParser) open(closer byte) (bool, error) {
	if p.depth++; p.depth > maxLineDepth {
		return false, p.errorf("exceeded max depth")
	}
	p.i++
	if p.space(); p.peek() == closer {
		p.i++
		p.depth--
		return false, nil
	}
	return true, nil
}

// next steps over what follows a member or an element: a ',', reporting
// true with the cursor on the next one, or closer, out of the container,
// reporting false.
func (p *lineParser) next(closer byte) (bool, error) {
	p.space()
	switch p.peek() {
	case ',':
		p.i++
		p.space()
		return true, nil
	case closer:
		p.i++
		p.depth--
		return false, nil
	}
	return false, p.errorf("want ',' or '%c'", closer)
}

// name reads a member name and the ':' after it, leaving the cursor on
// the member's value, and returns the name unescaped. A name spelled as
// AppendEvent spells it — plain, the ':' right after — is read off its
// bytes in place.
func (p *lineParser) name() ([]byte, error) {
	b, i := p.b, p.i
	if i < len(b) && b[i] == '"' {
		if j := plainRun(b, i+1); j+1 < len(b) && b[j] == '"' && b[j+1] == ':' {
			p.i = j + 2
			p.space()
			return b[i+1 : j], nil
		}
	} else {
		return nil, p.errorf("want a member name")
	}
	body, plain, err := p.stringToken()
	if err != nil {
		return nil, err
	}
	if !plain {
		var s string // a name may be spelled with escapes: "c\u0065ll"
		if err := json.Unmarshal(b[i:p.i], &s); err != nil {
			return nil, err
		}
		body = []byte(s)
	}
	if p.space(); p.peek() != ':' {
		return nil, p.errorf("want ':' after a member name")
	}
	p.i++
	p.space()
	return body, nil
}

// The members a line and its spec hold, each spelled as AppendEvent
// writes its name, in the order it writes them: quoted, then the ':'.
var (
	lineMembers = [...]string{`"seq":`, `"cell":`, `"status":`, `"key":`, `"spec":`, `"result":`, `"error":`, `"end":`, `"sweep":`}
	cellMembers = [...]string{`"mix":`, `"controller":`, `"scale":`, `"seed":`, `"target":`, `"step":`, `"dram_mtps":`, `"dram_channels":`}
)

// Indexes into lineMembers and cellMembers.
const (
	mSeq = iota
	mCell
	mStatus
	mKey
	mSpec
	mResult
	mError
	mEnd
	mSweep
)

const (
	mMix = iota
	mController
	mScale
	mSeed
	mTarget
	mStep
	mDRAMMTps
	mDRAMChannels
)

// member reads a member's name and the ':' after it, leaving the cursor
// on its value, and returns the name's index in names, or -1 for a name
// not there. The name's bytes are matched against names from index from
// on, then from the start, so members that come in the order names
// lists them match on the first try; a name spelled any other way — an
// escape, space before the ':' — is read and unescaped first.
func (p *lineParser) member(names []string, from int) (int, error) {
	rest := p.b[p.i:]
	for j := range names {
		k := from + j
		if k >= len(names) {
			k -= len(names)
		}
		if n := names[k]; len(rest) >= len(n) && string(rest[:len(n)]) == n {
			p.i += len(n)
			p.space()
			return k, nil
		}
	}
	name, err := p.name()
	if err != nil {
		return -1, err
	}
	for k, n := range names {
		if string(name) == n[1:len(n)-2] {
			return k, nil
		}
	}
	return -1, nil
}

// line decodes the line's object, member by member.
func (p *lineParser) line(l *Line) error {
	if p.peek() != '{' {
		return p.errorf("want an object")
	}
	more, err := p.open('}')
	for k := -1; more && err == nil; {
		if k, err = p.member(lineMembers[:], k+1); err == nil {
			if err = p.lineMember(l, k); err == nil {
				more, err = p.next('}')
			}
		}
	}
	return err
}

func (p *lineParser) lineMember(l *Line, member int) error {
	ev := &l.Event
	switch member {
	case mEnd:
		return p.boolean(&l.End)
	case mSweep:
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
	case mSeq:
		return p.integer(&ev.Seq)
	case mCell:
		return p.integer(&ev.Cell)
	case mStatus:
		return p.status(&ev.Status)
	case mKey:
		return p.str(&ev.Key, nil)
	case mSpec:
		switch p.peek() {
		case 'n':
			return p.literal("null")
		case '{':
			return p.cell(&ev.Spec)
		}
		return p.errorf("want an object")
	case mResult:
		raw, err := p.raw()
		ev.Result = append(ev.Result[:0], raw...)
		return err
	case mError:
		return p.str(&ev.Error, nil)
	}
	return p.skip()
}

// cell decodes the spec object at the cursor into c, member by member.
func (p *lineParser) cell(c *Cell) error {
	more, err := p.open('}')
	for k := -1; more && err == nil; {
		if k, err = p.member(cellMembers[:], k+1); err == nil {
			if err = p.cellMember(c, k); err == nil {
				more, err = p.next('}')
			}
		}
	}
	return err
}

func (p *lineParser) cellMember(c *Cell, member int) error {
	switch member {
	case mMix:
		return p.strings(&c.Mix)
	case mController:
		var memo *string
		if p.d != nil {
			memo = &p.d.controller
		}
		return p.str(&c.Controller, memo)
	case mScale:
		var memo *string
		if p.d != nil {
			memo = &p.d.scale
		}
		return p.str(&c.Scale, memo)
	case mSeed:
		return p.unsigned(&c.Seed)
	case mTarget:
		return p.unsigned(&c.Target)
	case mStep:
		return p.unsigned(&c.Step)
	case mDRAMMTps:
		return p.integer(&c.DRAMMTps)
	case mDRAMChannels:
		return p.integer(&c.DRAMChannels)
	}
	return p.skip()
}

// raw validates the value at the cursor, whatever it is, and returns
// its bytes, aliasing the line.
func (p *lineParser) raw() ([]byte, error) {
	start := p.i
	err := p.skip()
	return p.b[start:p.i], err
}

// skip validates the value at the cursor, whatever it is, and steps over
// it.
func (p *lineParser) skip() error {
	end, fault := skipValue(p.b, p.i, p.depth)
	p.i = end
	if fault != "" {
		return p.errorf("%s", fault)
	}
	return nil
}

// The scanners below validate JSON in place, each with its own index
// into the line, and return the index just past what they read — or,
// with a fault saying what is wrong, the index of the byte at fault.

// skipValue scans the value at b[i], inside depth containers already, in
// one loop rather than by recursion: it keeps the closer of each object
// or array it is inside on a stack, and refuses to nest past
// maxLineDepth in all as encoding/json does.
func skipValue(b []byte, i, depth int) (int, string) {
	var stack [32]byte // deeper nesting moves the stack to the heap
	closers := stack[:0]
	for {
		// A value starts at i.
		if i == len(b) {
			return i, "unexpected end of line, want a value"
		}
		var fault string
		switch c := b[i]; c {
		case '"':
			i, _, fault = scanString(b, i)
		case '{', '[':
			if depth+len(closers) >= maxLineDepth {
				return i, "exceeded max depth"
			}
			closer := c + 2 // '}' and ']' are two past their openers in ASCII
			if i = skipSpace(b, i+1); i < len(b) && b[i] == closer {
				i++
				break
			}
			closers = append(closers, closer)
			if c == '{' {
				i, fault = skipName(b, i)
			}
			if fault != "" {
				return i, fault
			}
			continue
		case 't':
			i, fault = scanWord(b, i, "true")
		case 'f':
			i, fault = scanWord(b, i, "false")
		case 'n':
			i, fault = scanWord(b, i, "null")
		default:
			i, fault = scanNumber(b, i)
		}
		if fault != "" {
			return i, fault
		}
		// The value is over: on to the next one, out of every container
		// that ends here.
		for ; len(closers) > 0; closers = closers[:len(closers)-1] {
			closer := closers[len(closers)-1]
			if i = skipSpace(b, i); i < len(b) && b[i] == ',' {
				if i = skipSpace(b, i+1); closer == '}' {
					i, fault = skipName(b, i)
				}
				break
			}
			if i == len(b) || b[i] != closer {
				return i, "want ',' or '" + string(closer) + "'"
			}
			i++
		}
		if fault != "" {
			return i, fault
		}
		if len(closers) == 0 {
			return i, ""
		}
	}
}

// skipSpace returns the index of the first byte at or after i that is
// not JSON whitespace.
func skipSpace(b []byte, i int) int {
	for i < len(b) && (b[i] == ' ' || b[i] == '\t' || b[i] == '\r' || b[i] == '\n') {
		i++
	}
	return i
}

// skipName scans a member name at b[i] and the ':' after it, and returns
// the index of the member's value. A name spelled as AppendEvent spells
// it — plain, the ':' right after — goes in one step.
func skipName(b []byte, i int) (int, string) {
	if i == len(b) || b[i] != '"' {
		return i, "want a member name"
	}
	if j := plainRun(b, i+1); j+1 < len(b) && b[j] == '"' && b[j+1] == ':' {
		return skipSpace(b, j+2), ""
	}
	i, _, fault := scanString(b, i)
	if fault != "" {
		return i, fault
	}
	if i = skipSpace(b, i); i == len(b) || b[i] != ':' {
		return i, "want ':' after a member name"
	}
	return skipSpace(b, i+1), ""
}

func scanWord(b []byte, i int, word string) (int, string) {
	if len(b)-i < len(word) || string(b[i:i+len(word)]) != word {
		return i, "invalid literal, want " + word
	}
	return i + len(word), ""
}

// plainByte is set for the bytes that stand for themselves in a string
// that is its value as it stands: printable ASCII but '"' and '\\'.
var plainByte = func() (t [256]bool) {
	for c := 0x20; c < 0x80; c++ {
		t[c] = c != '"' && c != '\\'
	}
	return t
}()

// plainRun returns the index of the first byte at or after i that is not
// a plainByte one, or len(b).
func plainRun(b []byte, i int) int {
	for i < len(b) && plainByte[b[i]] {
		i++
	}
	return i
}

// scanString scans the string whose opening quote is at b[i]. plain
// reports that the bytes between its quotes are its value as they
// stand: ASCII with no escape.
func scanString(b []byte, i int) (end int, plain bool, fault string) {
	plain = true
	for i++; ; i++ {
		if i = plainRun(b, i); i == len(b) {
			return i, false, "unexpected end of line in a string"
		}
		switch c := b[i]; {
		case c == '"':
			return i + 1, plain, ""
		case c == '\\':
			plain = false
			if i++; i == len(b) {
				return i, false, "unexpected end of line in a string"
			}
			switch b[i] {
			case '"', '\\', '/', 'b', 'f', 'n', 'r', 't':
			case 'u':
				if len(b)-i < 5 || !isHex4(b[i+1:i+5]) {
					return i, false, `invalid \u escape`
				}
				i += 4
			default:
				return i, false, "invalid escape in a string"
			}
		case c < 0x20:
			return i, false, "control character in a string"
		default: // a byte of a non-ASCII rune, or of broken UTF-8
			plain = false
		}
	}
}

func isHex4(b []byte) bool {
	for _, c := range b {
		if !('0' <= c && c <= '9' || 'a' <= c && c <= 'f' || 'A' <= c && c <= 'F') {
			return false
		}
	}
	return true
}

// scanNumber scans the number at b[i].
func scanNumber(b []byte, i int) (int, string) {
	if i < len(b) && b[i] == '-' {
		i++
	}
	switch {
	case i < len(b) && b[i] == '0':
		i++
	case i < len(b) && '1' <= b[i] && b[i] <= '9':
		i = skipDigits(b, i+1)
	default:
		return i, "invalid value"
	}
	if i < len(b) && b[i] == '.' {
		j := skipDigits(b, i+1)
		if j == i+1 {
			return j, "invalid number: want a digit after '.'"
		}
		i = j
	}
	if i < len(b) && (b[i] == 'e' || b[i] == 'E') {
		if i++; i < len(b) && (b[i] == '+' || b[i] == '-') {
			i++
		}
		j := skipDigits(b, i)
		if j == i {
			return j, "invalid number: want a digit in the exponent"
		}
		i = j
	}
	return i, ""
}

// skipDigits returns the index of the first byte at or after i that is
// not a decimal digit, or len(b).
func skipDigits(b []byte, i int) int {
	for i < len(b) && '0' <= b[i] && b[i] <= '9' {
		i++
	}
	return i
}

// stringToken validates the string at the cursor and returns the bytes
// between its quotes, and whether they are its value as they stand.
func (p *lineParser) stringToken() (body []byte, plain bool, err error) {
	end, plain, fault := scanString(p.b, p.i)
	if fault != "" {
		p.i = end
		return nil, false, p.errorf("%s", fault)
	}
	body, p.i = p.b[p.i+1:end-1], end
	return body, plain, nil
}

// number scans the JSON number at the cursor.
func (p *lineParser) number() ([]byte, error) {
	start := p.i
	end, fault := scanNumber(p.b, p.i)
	p.i = end
	if fault != "" {
		return nil, p.errorf("%s", fault)
	}
	return p.b[start:end], nil
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

// token reads the string or null at the cursor: a string's bytes between
// its quotes and whether they are its value as they stand, or null set.
func (p *lineParser) token() (body []byte, plain, null bool, err error) {
	switch p.peek() {
	case 'n':
		return nil, false, true, p.literal("null")
	case '"':
		body, plain, err = p.stringToken()
		return body, plain, false, err
	}
	return nil, false, false, p.errorf("want a string")
}

// unquote decodes the string token whose body the cursor has just passed
// into dst, escapes and all.
func (p *lineParser) unquote(dst *string, body []byte) error {
	var s string // not dst itself: what json.Unmarshal is handed moves to the heap
	err := json.Unmarshal(p.b[p.i-len(body)-2:p.i], &s)
	*dst = s
	return err
}

// str decodes the string at the cursor into dst. Given a memo (the
// Decoder's string for this field), a value with the memo's bytes is the
// memo's string, and any other becomes the memo.
func (p *lineParser) str(dst, memo *string) error {
	body, plain, null, err := p.token()
	switch {
	case err != nil || null:
		return err
	case !plain:
		return p.unquote(dst, body)
	case memo != nil && *memo == string(body):
		*dst = *memo
	default:
		*dst = string(body)
		if memo != nil {
			*memo = *dst
		}
	}
	return nil
}

// status is str for a cell status: one of the three a server sends is
// its constant.
func (p *lineParser) status(dst *CellStatus) error {
	body, plain, null, err := p.token()
	switch {
	case err != nil || null:
		return err
	case !plain:
		return p.unquote((*string)(dst), body)
	}
	for _, known := range [...]CellStatus{CellDeduped, CellDone, CellFailed} {
		if string(body) == string(known) {
			*dst = known
			return nil
		}
	}
	*dst = CellStatus(body)
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
	n := 0
	more, err := p.open(']')
	for more && err == nil {
		if n == len(s) {
			switch {
			case n < cap(s):
				s = s[:n+1]
			case n == 0:
				s = make([]string, 1, 4) // a 4-core mix, the paper's main configuration, in one allocation
			default:
				s = append(s, "")
			}
		}
		var memo *string
		if p.d != nil && n < len(p.d.mix) {
			memo = &p.d.mix[n]
		}
		if err = p.str(&s[n], memo); err == nil {
			n++
			more, err = p.next(']')
		}
	}
	if n == 0 {
		s = []string{}
	}
	*dst = s[:n]
	return err
}
