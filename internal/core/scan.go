package core

import (
	"bytes"
	"encoding/json"
)

// The hot wire payloads — a verify request, the request inside a cosign,
// the announcement array of a batch — and the verdict in every record the
// store replays are decoded by one validating single-pass scanner instead
// of encoding/json's validate-then-reflect double pass. The contract is
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

// plainStr consumes the string under the cursor and returns its bytes,
// declining one that str does not report plain.
func (s *scanner) plainStr() (body []byte, ok bool) {
	body, plain, ok := s.str()
	return body, ok && plain
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
		body, ok := s.plainStr()
		if !ok {
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

// The members of a Verdict the scanner decodes.
const (
	memAccepted = 1 << iota
	memVerdictFormat
	memReason
	memDetails
)

// ScanVerdict decodes a verdict — the body of every verdict-log record —
// under ScanVerifyRequest's contract: accepted is a bare true or false,
// format and reason plain strings, details an object of plain strings
// with no repeated key, and anything else (null members included)
// declines. An empty details object decodes to an empty non-nil map, as
// json.Unmarshal gives.
func ScanVerdict(data []byte) (v Verdict, ok bool) {
	s := scanner{data: data}
	var seen uint8
	ok = s.object(1, func(key []byte) bool {
		var mem uint8
		switch string(key) {
		case "accepted":
			mem = memAccepted
		case "format":
			mem = memVerdictFormat
		case "reason":
			mem = memReason
		case "details":
			mem = memDetails
		}
		if mem == 0 || mem&seen != 0 {
			return false
		}
		seen |= mem
		switch mem {
		case memAccepted:
			v.Accepted = s.literal("true")
			return v.Accepted || s.literal("false")
		case memDetails:
			v.Details = map[string]string{}
			return s.object(2, func(k []byte) bool {
				if _, dup := v.Details[string(k)]; dup {
					return false
				}
				val, ok := s.plainStr()
				if !ok {
					return false
				}
				v.Details[string(k)] = string(val)
				return true
			})
		}
		body, ok := s.plainStr()
		if !ok {
			return false
		}
		if mem == memVerdictFormat {
			v.Format = internFormat(body)
		} else {
			v.Reason = string(body)
		}
		return true
	})
	if !ok || !s.end() {
		return Verdict{}, false
	}
	return v, true
}
