package core

import (
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
