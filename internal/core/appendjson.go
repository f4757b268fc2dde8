package core

import (
	"encoding/json"
	"slices"
	"unicode/utf8"
)

// The reply payloads on the hot path — a verdict, the verify response
// around it — are written by append encoders instead of reflected
// through json.Marshal. Their output is byte-identical to json.Marshal's
// (member order, omitempty, sorted map keys, HTML-safe string escaping):
// certificate digests are taken over these bytes, and two authorities
// must produce the same ones for the same verdict.

// AppendJSON appends the verdict exactly as json.Marshal encodes it.
func (v *Verdict) AppendJSON(dst []byte) []byte {
	if v.Accepted {
		dst = append(dst, `{"accepted":true,"format":`...)
	} else {
		dst = append(dst, `{"accepted":false,"format":`...)
	}
	dst = appendJSONString(dst, v.Format)
	if v.Reason != "" {
		dst = append(dst, `,"reason":`...)
		dst = appendJSONString(dst, v.Reason)
	}
	if len(v.Details) > 0 {
		dst = append(dst, `,"details":{`...)
		// json.Marshal sorts map keys; a verdict's handful fits the stack.
		keys := make([]string, 0, 8)
		for k := range v.Details {
			keys = append(keys, k)
		}
		slices.Sort(keys)
		for i, k := range keys {
			if i > 0 {
				dst = append(dst, ',')
			}
			dst = appendJSONString(dst, k)
			dst = append(dst, ':')
			dst = appendJSONString(dst, v.Details[k])
		}
		dst = append(dst, '}')
	}
	return append(dst, '}')
}

// AppendVerifyResponse appends the VerifyResponse of verifierID over
// verdict exactly as json.Marshal encodes it, given the verdict already
// encoded by AppendJSON: the bytes are spliced in, not re-encoded.
func AppendVerifyResponse(dst []byte, verifierID string, verdict []byte) []byte {
	dst = append(dst, `{"verifierId":`...)
	dst = appendJSONString(dst, verifierID)
	dst = append(dst, `,"verdict":`...)
	dst = append(dst, verdict...)
	return append(dst, '}')
}

// AppendJSON appends the request exactly as json.Marshal encodes it, and
// returns json.Marshal's error when it fails. The raw members are spliced
// in when each is non-empty JSON with nothing json.Marshal would rewrite
// — no whitespace, no <, > or &, no U+2028 or U+2029 — and the request
// goes through json.Marshal otherwise. A store record's content sum is
// taken over these bytes.
func (r *VerifyRequest) AppendJSON(dst []byte) ([]byte, error) {
	if !spliceable(r.Game) || !spliceable(r.Advice) || len(r.Proof) > 0 && !spliceable(r.Proof) {
		data, err := json.Marshal(*r) // a copy, so that r itself does not escape
		return append(dst, data...), err
	}
	dst = slices.Grow(dst, len(r.Format)+len(r.Game)+len(r.Advice)+len(r.Proof)+48)
	dst = appendJSONString(append(dst, `{"format":`...), r.Format)
	dst = append(append(dst, `,"game":`...), r.Game...)
	dst = append(append(dst, `,"advice":`...), r.Advice...)
	if len(r.Proof) > 0 {
		dst = append(append(dst, `,"proof":`...), r.Proof...)
	}
	return append(dst, '}'), nil
}

// spliceable reports whether json.Marshal copies raw through unchanged:
// it is one valid JSON value with no byte compaction drops or escaping
// rewrites.
func spliceable(raw []byte) bool {
	for i, c := range raw {
		switch c {
		case ' ', '\t', '\n', '\r', '<', '>', '&':
			return false
		case 0xE2: // U+2028 and U+2029 are E2 80 A8 and E2 80 A9
			if i+2 < len(raw) && raw[i+1] == 0x80 && raw[i+2]&^1 == 0xA8 {
				return false
			}
		}
	}
	s := scanner{data: raw}
	return len(raw) > 0 && s.value(1) && s.pos == len(raw)
}

const hexDigits = "0123456789abcdef"

// appendJSONString appends s as a JSON string the way json.Marshal does
// with its default HTML escaping: ", \ and control bytes escaped (\b \f
// \n \r \t by name, the rest \u00XX), <, > and & as \u00XX, U+2028 and
// U+2029 as \u202X, and each byte of invalid UTF-8 as \ufffd.
func appendJSONString(dst []byte, s string) []byte {
	dst = append(dst, '"')
	start := 0
	for i := 0; i < len(s); {
		if b := s[i]; b < utf8.RuneSelf {
			if b >= 0x20 && b != '"' && b != '\\' && b != '<' && b != '>' && b != '&' {
				i++
				continue
			}
			dst = append(dst, s[start:i]...)
			switch b {
			case '\\', '"':
				dst = append(dst, '\\', b)
			case '\b':
				dst = append(dst, '\\', 'b')
			case '\f':
				dst = append(dst, '\\', 'f')
			case '\n':
				dst = append(dst, '\\', 'n')
			case '\r':
				dst = append(dst, '\\', 'r')
			case '\t':
				dst = append(dst, '\\', 't')
			default:
				dst = append(dst, '\\', 'u', '0', '0', hexDigits[b>>4], hexDigits[b&0xF])
			}
			i++
			start = i
			continue
		}
		c, size := utf8.DecodeRuneInString(s[i:])
		switch {
		case c == utf8.RuneError && size == 1:
			dst = append(dst, s[start:i]...)
			dst = append(dst, `\ufffd`...)
			start = i + size
		case c == '\u2028' || c == '\u2029':
			dst = append(dst, s[start:i]...)
			dst = append(dst, '\\', 'u', '2', '0', '2', hexDigits[c&0xF])
			start = i + size
		}
		i += size
	}
	dst = append(dst, s[start:]...)
	return append(dst, '"')
}
