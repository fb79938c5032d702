package server

import (
	"strconv"
	"strings"
	"unicode/utf8"

	"blitzsplit/internal/bitset"
	"blitzsplit/internal/spec"
)

// decodePlain is readJSON's fast path for the two hot request bodies. It
// fills an *OptimizeRequest or *ExecuteRequest straight from the bytes, with
// no reflection, when the body is in the plain form, and reports whether it
// did. The plain form is:
//
//   - one object, followed only by JSON whitespace;
//   - keys spelled exactly as the struct tags, each at most once per object;
//   - strings with no backslash and no byte below 0x20, in valid UTF-8;
//   - numbers in JSON's grammar, converted to the bits encoding/json produces
//     (strconv.ParseFloat at 64 bits, strconv.ParseInt at the field's size);
//   - true, false, and arrays of relation and join objects.
//
// On any other body — an unknown or differently cased key, a duplicate key,
// null, an escape, a conversion error, trailing bytes, a syntax error — it
// returns false and leaves v at its zero value, so encoding/json decodes the
// body from scratch and answers with its own errors. Every body it accepts
// decodes exactly as json.Unmarshal into a zero value would
// (FuzzDecodeRequest). Clients that render their bodies, as the benchmark
// does, send only plain ones.
//
// Strings are substrings of one copy of the body, so nothing aliases the
// caller's buffer, and the returned slices are allocated once, at their
// exact length.
func decodePlain(body []byte, v any) bool {
	switch req := v.(type) {
	case *OptimizeRequest:
		if !decodeFields(body, req, nil) {
			*req = OptimizeRequest{}
			return false
		}
	case *ExecuteRequest:
		if !decodeFields(body, &req.OptimizeRequest, req) {
			*req = ExecuteRequest{}
			return false
		}
	default:
		return false
	}
	return true
}

// Top-level keys in struct order: an optimize request takes the first
// keySeed of them, an execute request all.
const (
	keyRelations = iota
	keyJoins
	keyModel
	keyLeftDeep
	keyTimeoutMS
	keyIncludePlan
	keySeed
	keyAlgorithm
	keyAdaptive
	keyMaxRows
	keyCollectOps
)

// The keys of the plain form, quoted, by field index: requestKeys by the
// key constants above, relationKeys and joinKeys in struct order.
var (
	requestKeys = []string{
		keyRelations:   `"relations"`,
		keyJoins:       `"joins"`,
		keyModel:       `"model"`,
		keyLeftDeep:    `"left_deep"`,
		keyTimeoutMS:   `"timeout_ms"`,
		keyIncludePlan: `"include_plan"`,
		keySeed:        `"seed"`,
		keyAlgorithm:   `"algorithm"`,
		keyAdaptive:    `"adaptive"`,
		keyMaxRows:     `"max_rows"`,
		keyCollectOps:  `"collect_ops"`,
	}
	relationKeys = []string{`"name"`, `"cardinality"`, `"width"`}
	joinKeys     = []string{`"a"`, `"b"`, `"selectivity"`}
)

// matchKey returns the index in keys of the quoted key s starts with, and
// its length, or −1. The key must be spelled exactly, quotes included; a
// key with an escape or another case matches nothing.
func matchKey(s string, keys []string) (int, int) {
	for k, q := range keys {
		if strings.HasPrefix(s, q) {
			return k, len(q)
		}
	}
	return -1, 0
}

// decodeFields parses body into req and, for an execute body, the execution
// fields of ex. It reports whether the whole body was in the plain form.
func decodeFields(body []byte, req *OptimizeRequest, ex *ExecuteRequest) bool {
	p := plainParser{s: string(body)}
	keys := requestKeys
	if ex == nil {
		keys = keys[:keySeed] // an execution field in an optimize body is unknown
	}
	var seen uint32
	for more := p.open('{', '}'); more; more = p.next('}') {
		switch p.key(keys, &seen) {
		case keyRelations:
			req.Relations = p.relations()
		case keyJoins:
			req.Joins = p.joins(req.Relations)
		case keyModel:
			req.Model = p.str()
		case keyLeftDeep:
			req.LeftDeep = p.boolean()
		case keyTimeoutMS:
			req.TimeoutMS = p.integer(64)
		case keyIncludePlan:
			req.IncludePlan = p.boolean()
		case keySeed:
			ex.Seed = p.integer(64)
		case keyAlgorithm:
			ex.Algorithm = p.str()
		case keyAdaptive:
			ex.Adaptive = p.boolean()
		case keyMaxRows:
			ex.MaxRows = int(p.integer(strconv.IntSize))
		case keyCollectOps:
			ex.CollectOps = p.boolean()
		}
	}
	p.ws()
	return !p.bad && p.i == len(p.s)
}

// plainParser walks one body in the plain form. Its methods mark the body
// bad at the first byte outside the form and then return zero values; the
// member loops stop at the next separator, so a bad body ends the parse.
type plainParser struct {
	s   string
	i   int
	bad bool
}

func isSpace(c byte) bool { return c <= ' ' && (c == ' ' || c == '\t' || c == '\n' || c == '\r') }

func (p *plainParser) ws() {
	for p.i < len(p.s) && isSpace(p.s[p.i]) {
		p.i++
	}
}

// open consumes the opening byte of an object or array and reports whether a
// first member follows, i.e. whether the value is not empty.
func (p *plainParser) open(open, close byte) bool {
	if p.ws(); p.i >= len(p.s) || p.s[p.i] != open {
		p.bad = true
		return false
	}
	p.i++
	if p.ws(); p.i < len(p.s) && p.s[p.i] == close {
		p.i++
		return false
	}
	return true
}

// next consumes the byte after a member: a comma (another member follows)
// or the closing byte (the value ends).
func (p *plainParser) next(close byte) bool {
	if p.ws(); p.i < len(p.s) {
		switch p.s[p.i] {
		case ',':
			p.i++
			return !p.bad
		case close:
			p.i++
			return false
		}
	}
	p.bad = true
	return false
}

// key reads an object key and its colon and returns the key's index in
// keys. An unknown key, or one already recorded in seen, marks the body bad.
func (p *plainParser) key(keys []string, seen *uint32) int {
	p.ws()
	k, n := matchKey(p.s[p.i:], keys)
	if k < 0 || *seen&(1<<k) != 0 {
		p.bad = true
		return -1
	}
	p.i += n
	if p.ws(); p.i >= len(p.s) || p.s[p.i] != ':' {
		p.bad = true
		return -1
	}
	p.i++
	*seen |= 1 << k
	return k
}

// str reads a string with no escapes and no control bytes, in valid UTF-8.
func (p *plainParser) str() string {
	if p.ws(); p.i >= len(p.s) || p.s[p.i] != '"' {
		p.bad = true
		return ""
	}
	start, ascii := p.i+1, true
	for j := start; j < len(p.s); j++ {
		c := p.s[j]
		if !special[c] {
			continue
		}
		switch {
		case c == '"':
			v := p.s[start:j]
			if !ascii && !utf8.ValidString(v) {
				p.bad = true
				return ""
			}
			p.i = j + 1
			return v
		case c >= utf8.RuneSelf:
			ascii = false
		default: // a backslash or a control byte
			p.bad = true
			return ""
		}
	}
	p.bad = true
	return ""
}

// special marks the bytes str must look at: the closing quote, a backslash,
// control bytes, and the bytes of multi-byte UTF-8 sequences.
var special = func() (t [256]bool) {
	for c := range t {
		t[c] = c < 0x20 || c == '"' || c == '\\' || c >= utf8.RuneSelf
	}
	return t
}()

// number reads a literal in JSON's number grammar and returns its text, or
// "" (which no conversion accepts) when there is none.
func (p *plainParser) number() string {
	p.ws()
	s, i := p.s, p.i
	if i < len(s) && s[i] == '-' {
		i++
	}
	switch {
	case i < len(s) && s[i] == '0':
		i++
	case i < len(s) && '1' <= s[i] && s[i] <= '9':
		i = digits(s, i)
	default:
		return ""
	}
	if i < len(s) && s[i] == '.' {
		j := digits(s, i+1)
		if j == i+1 {
			return ""
		}
		i = j
	}
	if i < len(s) && (s[i] == 'e' || s[i] == 'E') {
		i++
		if i < len(s) && (s[i] == '+' || s[i] == '-') {
			i++
		}
		j := digits(s, i)
		if j == i {
			return ""
		}
		i = j
	}
	lit := s[p.i:i]
	p.i = i
	return lit
}

// digits returns the index of the first byte at or after i that is not a
// decimal digit.
func digits(s string, i int) int {
	for i < len(s) && '0' <= s[i] && s[i] <= '9' {
		i++
	}
	return i
}

// float converts a number as encoding/json does for a float64 field.
func (p *plainParser) float() float64 {
	f, err := strconv.ParseFloat(p.number(), 64)
	if err != nil {
		p.bad = true
	}
	return f
}

// integer converts a number as encoding/json does for an integer field of
// bitSize bits.
func (p *plainParser) integer(bitSize int) int64 {
	n, err := strconv.ParseInt(p.number(), 10, bitSize)
	if err != nil {
		p.bad = true
	}
	return n
}

func (p *plainParser) boolean() bool {
	p.ws()
	switch rest := p.s[p.i:]; {
	case strings.HasPrefix(rest, "true"):
		p.i += len("true")
		return true
	case strings.HasPrefix(rest, "false"):
		p.i += len("false")
	default:
		p.bad = true
	}
	return false
}

// relations reads the relation array. Elements collect in a stack buffer
// sized for every request the server can accept (bitset.MaxRelations; a
// longer array spills to the heap), and the result is allocated once, at
// its exact length. An empty array decodes to an empty non-nil slice, as
// with encoding/json.
func (p *plainParser) relations() []spec.Relation {
	var buf [32]spec.Relation
	rels := buf[:0]
	for more := p.open('[', ']'); more; more = p.next(']') {
		var r spec.Relation
		var seen uint32
		for more := p.open('{', '}'); more; more = p.next('}') {
			switch p.key(relationKeys, &seen) {
			case 0:
				r.Name = p.str()
			case 1:
				r.Cardinality = p.float()
			case 2:
				r.Width = int(p.integer(strconv.IntSize))
			}
		}
		rels = append(rels, r)
	}
	if p.bad {
		return nil
	}
	return append(make([]spec.Relation, 0, len(rels)), rels...)
}

// joins reads the join array, as relations reads the relation array. An
// endpoint naming one of rels, the relations decoded so far, reuses that
// relation's string, so the name comparisons of validation and query
// building meet equal pointers.
func (p *plainParser) joins(rels []spec.Relation) []spec.Join {
	var buf [64]spec.Join
	joins := buf[:0]
	for more := p.open('[', ']'); more; more = p.next(']') {
		var j spec.Join
		var seen uint32
		for more := p.open('{', '}'); more; more = p.next('}') {
			switch p.key(joinKeys, &seen) {
			case 0:
				j.A = relationName(rels, p.str())
			case 1:
				j.B = relationName(rels, p.str())
			case 2:
				j.Selectivity = p.float()
			}
		}
		joins = append(joins, j)
	}
	if p.bad {
		return nil
	}
	return append(make([]spec.Join, 0, len(joins)), joins...)
}

// relationName returns the name in rels equal to v, or v. Above
// bitset.MaxRelations the request is refused anyway, and the scan is skipped
// so that an oversized body costs no relations × joins comparisons.
func relationName(rels []spec.Relation, v string) string {
	if len(rels) > bitset.MaxRelations {
		return v
	}
	for _, r := range rels {
		if r.Name == v {
			return r.Name
		}
	}
	return v
}
