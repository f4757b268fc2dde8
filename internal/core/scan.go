package core

import (
	"bytes"
	"encoding/json"
	"math/big"
	"unicode/utf8"
)

// The hot wire payloads — a verify request, the request inside a cosign,
// the announcement array of a batch — and the procedures' inputs they
// carry (scaninputs.go) are decoded by one validating single-pass
// scanner instead of encoding/json's validate-then-reflect double pass. A verdict is never scanned: the hot paths splice its
// bytes, replay checks them in place with CanonicalVerdict (at the end
// of this file), and the other sites that want a value decode it with
// json.Unmarshal. The contract is
// narrow on purpose: a Scan function accepts only a document
// json.Unmarshal would decode to the identical struct, and returns
// ok=false for everything else — an unknown, repeated, escaped or
// differently-cased key, a signature, a string that is not plain ASCII,
// anything malformed — so the caller falls back to json.Unmarshal and
// behaviour on every input is unchanged. Raw members
// (Game, Advice, Proof) alias the input buffer: the caller must not
// reuse it while the decoded value is alive.

// maxScanDepth is the nesting the scanner follows before declining.
// encoding/json gives up at 10000; staying far below keeps the
// recursion shallow and leaves the deep cases to it.
const maxScanDepth = 256

// scanner is a cursor over one JSON document.
type scanner struct {
	data []byte
	pos  int
	// inventor is the last inventor ID decoded: a batch usually speaks
	// for one inventor, so a repeat costs a comparison, not a string.
	inventor string
	// ints and words are the arenas a procedure input's integer lists
	// and whole-number rationals are carved from (scaninputs.go).
	ints  []int
	words []big.Word
}

// ws skips insignificant whitespace and returns the byte now under the
// cursor, or 0 at the end of the document (0 is never valid JSON).
func (s *scanner) ws() byte {
	for ; s.pos < len(s.data); s.pos++ {
		switch c := s.data[s.pos]; c {
		case ' ', '\t', '\r', '\n':
		default:
			return c
		}
	}
	return 0
}

// eat consumes c if it is the next significant byte.
func (s *scanner) eat(c byte) bool {
	if s.ws() != c {
		return false
	}
	s.pos++
	return true
}

// end reports whether only whitespace remains.
func (s *scanner) end() bool { return s.ws() == 0 && s.pos == len(s.data) }

// str consumes the string under the cursor and returns the bytes between
// its quotes. plain reports printable ASCII with no escapes — the one
// case where those bytes are the decoded string.
func (s *scanner) str() (body []byte, plain, ok bool) {
	if s.pos >= len(s.data) || s.data[s.pos] != '"' {
		return nil, false, false
	}
	start := s.pos + 1
	plain = true
	for i := start; i < len(s.data); i++ {
		switch c := s.data[i]; {
		case c == '"':
			s.pos = i + 1
			return s.data[start:i], plain, true
		case c == '\\':
			plain = false
			i++
			if i >= len(s.data) {
				return nil, false, false
			}
			switch s.data[i] {
			case '"', '\\', '/', 'b', 'f', 'n', 'r', 't':
			case 'u':
				if i+4 >= len(s.data) || !isHex4(s.data[i+1:i+5]) {
					return nil, false, false
				}
				i += 4
			default:
				return nil, false, false
			}
		case c < 0x20:
			return nil, false, false
		case c >= 0x80:
			plain = false
		}
	}
	return nil, false, false
}

func isHex4(b []byte) bool {
	for _, c := range b {
		if !('0' <= c && c <= '9' || 'a' <= c && c <= 'f' || 'A' <= c && c <= 'F') {
			return false
		}
	}
	return true
}

// digits consumes a run of decimal digits and reports whether there was one.
func (s *scanner) digits() bool {
	start := s.pos
	for s.pos < len(s.data) && '0' <= s.data[s.pos] && s.data[s.pos] <= '9' {
		s.pos++
	}
	return s.pos > start
}

// number consumes the number under the cursor.
func (s *scanner) number() bool {
	if s.pos < len(s.data) && s.data[s.pos] == '-' {
		s.pos++
	}
	if s.pos < len(s.data) && s.data[s.pos] == '0' {
		s.pos++
	} else if !s.digits() {
		return false
	}
	if s.pos < len(s.data) && s.data[s.pos] == '.' {
		s.pos++
		if !s.digits() {
			return false
		}
	}
	if s.pos < len(s.data) && (s.data[s.pos] == 'e' || s.data[s.pos] == 'E') {
		s.pos++
		if s.pos < len(s.data) && (s.data[s.pos] == '+' || s.data[s.pos] == '-') {
			s.pos++
		}
		return s.digits()
	}
	return true
}

// literal consumes word if it is under the cursor.
func (s *scanner) literal(word string) bool {
	if !bytes.HasPrefix(s.data[s.pos:], []byte(word)) {
		return false
	}
	s.pos += len(word)
	return true
}

// value validates the JSON value under the cursor (first significant
// byte already there) and consumes it. depth is the value's own nesting
// level, the document's top level being 1.
func (s *scanner) value(depth int) bool {
	if s.pos >= len(s.data) || depth > maxScanDepth {
		return false
	}
	switch s.data[s.pos] {
	case '{':
		return s.object(depth, nil)
	case '[':
		return s.array(depth, nil)
	case '"':
		_, _, ok := s.str()
		return ok
	case 't':
		return s.literal("true")
	case 'f':
		return s.literal("false")
	case 'n':
		return s.literal("null")
	default:
		return s.number()
	}
}

// object walks the object under the cursor, itself at nesting level
// depth. With member set, each member's key must be a plain string and
// member is called with the cursor on the member's value, which it must
// consume; with member nil, every value is validated generically.
func (s *scanner) object(depth int, member func(key []byte) bool) bool {
	if !s.eat('{') {
		return false
	}
	if s.eat('}') {
		return true
	}
	for {
		s.ws()
		key, plain, ok := s.str()
		if !ok || !s.eat(':') {
			return false
		}
		s.ws()
		if member == nil {
			ok = s.value(depth + 1)
		} else {
			ok = plain && member(key)
		}
		if !ok {
			return false
		}
		if s.eat('}') {
			return true
		}
		if !s.eat(',') {
			return false
		}
	}
}

// array walks the array under the cursor like object walks an object:
// elem is called with the cursor on each element, nil validates them.
func (s *scanner) array(depth int, elem func() bool) bool {
	if !s.eat('[') {
		return false
	}
	if s.eat(']') {
		return true
	}
	for {
		s.ws()
		ok := false
		if elem == nil {
			ok = s.value(depth + 1)
		} else {
			ok = elem()
		}
		if !ok {
			return false
		}
		if s.eat(']') {
			return true
		}
		if !s.eat(',') {
			return false
		}
	}
}

// raw validates the value under the cursor and points dst at its bytes
// in place, capacity clipped so an append cannot reach the neighbours.
func (s *scanner) raw(depth int, dst *json.RawMessage) bool {
	start := s.pos
	if !s.value(depth) {
		return false
	}
	*dst = s.data[start:s.pos:s.pos]
	return true
}

// The members of an Announcement the scanner decodes. VerifyRequest is
// the same shape without the inventor; Signature is never scanned.
const (
	memInventorID = 1 << iota
	memFormat
	memGame
	memAdvice
	memProof

	memVerifyRequest = memFormat | memGame | memAdvice | memProof
	memAnnouncement  = memInventorID | memVerifyRequest
)

// announcement walks the object under the cursor (nesting level depth)
// into a, declining any member outside allowed and any repeat.
func (s *scanner) announcement(depth int, a *Announcement, allowed uint8) bool {
	var seen uint8
	return s.object(depth, func(key []byte) bool {
		var mem uint8
		switch string(key) {
		case "inventorId":
			mem = memInventorID
		case "format":
			mem = memFormat
		case "game":
			mem = memGame
		case "advice":
			mem = memAdvice
		case "proof":
			mem = memProof
		}
		if mem&allowed == 0 || mem&seen != 0 {
			return false
		}
		seen |= mem
		switch mem {
		case memGame:
			return s.raw(depth+1, &a.Game)
		case memAdvice:
			return s.raw(depth+1, &a.Advice)
		case memProof:
			return s.raw(depth+1, &a.Proof)
		}
		body, plain, ok := s.str()
		if !ok || !plain {
			return false
		}
		if mem == memFormat {
			a.Format = internFormat(body)
		} else {
			if s.inventor != string(body) {
				s.inventor = string(body)
			}
			a.InventorID = s.inventor
		}
		return true
	})
}

// internFormat returns the format string without allocating for the
// bundled formats; one missing from the list only costs its allocation.
func internFormat(b []byte) string {
	switch string(b) {
	case FormatEnumeration:
		return FormatEnumeration
	case FormatP1:
		return FormatP1
	case FormatNAgent:
		return FormatNAgent
	case FormatParticipation:
		return FormatParticipation
	case FormatCorrelated:
		return FormatCorrelated
	case FormatLastMover:
		return FormatLastMover
	case FormatLinksRouting:
		return FormatLinksRouting
	}
	return string(b)
}

// wrapped walks a document that is one object with the single member
// key, calling inner with the cursor on that member's value.
func (s *scanner) wrapped(key string, inner func() bool) bool {
	found := false
	ok := s.object(1, func(k []byte) bool {
		if found || string(k) != key {
			return false
		}
		found = true
		return inner()
	})
	return ok && found && s.end()
}

// request is the verify request an announcement scanned under
// memVerifyRequest holds.
func (a *Announcement) request() VerifyRequest {
	return VerifyRequest{Format: a.Format, Game: a.Game, Advice: a.Advice, Proof: a.Proof}
}

// ScanVerifyRequest decodes a verify payload. ok=false means "not the
// plain shape": decode it with json.Unmarshal instead.
func ScanVerifyRequest(data []byte) (vr VerifyRequest, ok bool) {
	s := scanner{data: data}
	var a Announcement
	if !s.announcement(1, &a, memVerifyRequest) || !s.end() {
		return VerifyRequest{}, false
	}
	return a.request(), true
}

// ScanWrappedVerifyRequest decodes {key: <verify request>} — the shape
// of a cosign payload — under ScanVerifyRequest's contract.
func ScanWrappedVerifyRequest(data []byte, key string) (vr VerifyRequest, ok bool) {
	s := scanner{data: data}
	var a Announcement
	if !s.wrapped(key, func() bool { return s.announcement(2, &a, memVerifyRequest) }) {
		return VerifyRequest{}, false
	}
	return a.request(), true
}

// ScanAnnouncements decodes {key: [<announcement>, ...]} — the shape of
// a verify-stream payload — under ScanVerifyRequest's
// contract; one item outside it declines the whole batch.
func ScanAnnouncements(data []byte, key string) (anns []Announcement, ok bool) {
	s := scanner{data: data}
	anns = []Announcement{} // an empty array decodes to empty, not nil
	ok = s.wrapped(key, func() bool {
		return s.array(2, func() bool {
			anns = append(anns, Announcement{})
			return s.announcement(3, &anns[len(anns)-1], memAnnouncement)
		})
	})
	if !ok {
		return nil, false
	}
	return anns, true
}

// CanonicalVerdict reports whether data is byte for byte what AppendJSON
// writes for the verdict data decodes to, and that verdict's polarity —
// without decoding it and without allocating. That holds when the members
// come in AppendJSON's order (accepted, format, then reason only when
// non-empty, then details only when non-empty) with no whitespace,
// details keys strictly increase, and every string is in AppendJSON's
// escaping: a byte that encodes as itself appears raw (valid UTF-8 other
// than U+2028 and U+2029 included), and every other byte appears as the
// one escape AppendJSON writes for it. A details key with an escape is
// declined rather than compared decoded, as is everything else:
// ok=false means "decode it" (json.Unmarshal) — the bytes may still be
// a verdict, just not in the canonical spelling. Its accepts are a
// subset of json.Unmarshal's, so replacing a decode by this check never
// changes which inputs are valid.
func CanonicalVerdict(data []byte) (accepted, ok bool) {
	const (
		acceptedTrue  = `{"accepted":true,"format":`
		acceptedFalse = `{"accepted":false,"format":`
	)
	var i int
	switch {
	case bytes.HasPrefix(data, []byte(acceptedTrue)):
		accepted, i = true, len(acceptedTrue)
	case bytes.HasPrefix(data, []byte(acceptedFalse)):
		i = len(acceptedFalse)
	default:
		return false, false
	}
	i, _, ok = canonicalString(data, i)
	if !ok {
		return false, false
	}
	if bytes.HasPrefix(data[i:], []byte(`,"reason":`)) {
		start := i + len(`,"reason":`)
		if i, _, ok = canonicalString(data, start); !ok || i == start+2 {
			return false, false // an empty reason is omitted, never written
		}
	}
	if bytes.HasPrefix(data[i:], []byte(`,"details":`)) {
		i += len(`,"details":`)
		var prev []byte
		for sep := byte('{'); at(data, i, sep); sep = ',' {
			keyAt := i + 1
			var escaped bool
			if i, escaped, ok = canonicalString(data, keyAt); !ok || escaped || !at(data, i, ':') {
				return false, false
			}
			key := data[keyAt+1 : i-1]
			if prev != nil && bytes.Compare(prev, key) >= 0 {
				return false, false // details keys are written sorted, once each
			}
			prev = key
			if i, _, ok = canonicalString(data, i+1); !ok {
				return false, false
			}
		}
		if prev == nil || !at(data, i, '}') {
			return false, false // an empty details object is omitted, never written
		}
		i++
	}
	if i != len(data)-1 || data[i] != '}' {
		return false, false
	}
	return accepted, true
}

// at reports whether data[i] is c.
func at(data []byte, i int, c byte) bool { return i < len(data) && data[i] == c }

// selfEncoding marks the ASCII bytes appendJSONString writes as
// themselves: printable, DEL included, less the quote, the backslash and
// the HTML-unsafe <, > and &.
var selfEncoding = func() (t [utf8.RuneSelf]bool) {
	for b := 0x20; b < utf8.RuneSelf; b++ {
		t[b] = b != '"' && b != '\\' && b != '<' && b != '>' && b != '&'
	}
	return t
}()

// canonicalString checks that the string starting at data[i] is spelled
// as appendJSONString spells the string it decodes to, and returns the
// index just past its closing quote and whether it holds an escape.
func canonicalString(data []byte, i int) (end int, escaped, ok bool) {
	if !at(data, i, '"') {
		return 0, false, false
	}
	for i++; i < len(data); {
		c := data[i]
		if c < utf8.RuneSelf {
			switch {
			case selfEncoding[c]:
				i++
			case c == '"':
				return i + 1, escaped, true
			case c == '\\':
				n := canonicalEscape(data[i:])
				if n == 0 {
					return 0, false, false
				}
				escaped = true
				i += n
			default:
				return 0, false, false // a byte appendJSONString escapes
			}
			continue
		}
		r, size := utf8.DecodeRune(data[i:])
		if r == utf8.RuneError && size == 1 || r == '\u2028' || r == '\u2029' {
			return 0, false, false
		}
		i += size
	}
	return 0, false, false
}

// canonicalEscape returns the length of the escape opening esc when it is
// the one appendJSONString writes for the byte or rune it stands for, and
// 0 otherwise.
func canonicalEscape(esc []byte) int {
	switch {
	case len(esc) >= 2 && bytes.IndexByte([]byte(`"\bfnrt`), esc[1]) >= 0:
		return 2
	case len(esc) < 6 || esc[1] != 'u':
		return 0
	}
	u := esc[2:6]
	switch string(u) {
	case "2028", "2029", "003c", "003e", "0026":
		return 6
	case "0008", "0009", "000a", "000c", "000d":
		return 0 // written by its short name
	}
	// The other control bytes: \u00XX in lower-case hex.
	if u[0] == '0' && u[1] == '0' && (u[2] == '0' || u[2] == '1') && isLowerHex(u[3]) {
		return 6
	}
	return 0
}

func isLowerHex(c byte) bool { return '0' <= c && c <= '9' || 'a' <= c && c <= 'f' }
