// Package scenario implements the declarative scenario DSL: a TOML-ish,
// zero-dependency config format describing a complete drive-test world —
// propagation and shadowing, cell/site layout, sector gain, mobility,
// load dynamics, and measurement granularity — compiled into the existing
// sim.World machinery so new measurement regimes need a config file, not
// Go code. Dataset A and Dataset B are themselves defined in this DSL
// (scenarios/dataset-a.toml, scenarios/dataset-b.toml); the bytes they
// compile to are pinned by fingerprint constants in internal/dataset.
//
// The package splits parsing into two layers: Parse produces a raw Doc
// (sections of typed key/value pairs, syntax-validated only), and Bind
// checks the Doc against the scenario schema. Doc.Format writes the
// canonical serialization, so Parse∘Format∘Parse is the identity on Docs
// — the round-trip property FuzzScenarioParse enforces.
package scenario

import (
	"errors"
	"fmt"
	"math"
	"sort"
	"strconv"
	"strings"
)

// Named error categories. Every error returned by Parse or Bind wraps one
// of these, so callers can classify failures with errors.Is.
var (
	// ErrSyntax marks malformed lines: missing '=', unterminated strings,
	// bad section headers.
	ErrSyntax = errors.New("scenario: syntax error")
	// ErrNonFinite marks NaN or Inf numeric values; the DSL rejects them
	// everywhere (a non-finite exponent or duration can never be valid).
	ErrNonFinite = errors.New("scenario: non-finite number")
	// ErrUnknownKey marks a key no section of the schema defines — the
	// typo guard.
	ErrUnknownKey = errors.New("scenario: unknown key")
	// ErrUnknownSection marks a section header outside the schema.
	ErrUnknownSection = errors.New("scenario: unknown section")
	// ErrBadValue marks a value of the wrong type for its key.
	ErrBadValue = errors.New("scenario: bad value")
	// ErrOutOfRange marks a value outside its physical domain (negative
	// pathloss exponent, zero interval, out-of-range index, ...).
	ErrOutOfRange = errors.New("scenario: value out of range")
	// ErrMissing marks a required key or section that is absent.
	ErrMissing = errors.New("scenario: missing required field")
)

// Kind enumerates value types the DSL supports.
type Kind int

// Value kinds: numbers (float64), booleans, and quoted strings.
const (
	KindNumber Kind = iota
	KindBool
	KindString
)

// Value is one parsed scalar.
type Value struct {
	Kind Kind
	Num  float64
	Bool bool
	Str  string
}

// String renders the canonical form of the value.
func (v Value) String() string {
	switch v.Kind {
	case KindNumber:
		return strconv.FormatFloat(v.Num, 'g', -1, 64)
	case KindBool:
		return strconv.FormatBool(v.Bool)
	default:
		return strconv.Quote(v.Str)
	}
}

// KV is one key/value pair inside a section.
type KV struct {
	Key string
	Val Value
}

// Section is one [name] or [[name]] block.
type Section struct {
	Name  string
	Array bool // declared with [[name]] — may repeat
	Keys  []KV
}

// get returns the value for key and whether it was present.
func (s *Section) get(key string) (Value, bool) {
	for _, kv := range s.Keys {
		if kv.Key == key {
			return kv.Val, true
		}
	}
	return Value{}, false
}

// Doc is a parsed scenario file before schema binding: an ordered list of
// sections. Key order inside a section is preserved from the source;
// Format writes sections and keys in parse order.
type Doc struct {
	Sections []Section
}

// sectionNames lists the legal section headers. scenario/world/pathloss/
// env are singular; center/layout/measure are arrays.
var sectionArity = map[string]bool{ // name -> is array
	"scenario": false,
	"world":    false,
	"pathloss": false,
	"env":      false,
	"center":   true,
	"layout":   true,
	"measure":  true,
}

// Parse reads the DSL text into a Doc. It validates syntax and value
// well-formedness (numbers must be finite, strings quoted, booleans
// true/false, sections known, keys unique within a section) but not the
// schema — Bind does that.
func Parse(text string) (*Doc, error) {
	d := &Doc{}
	var cur *Section
	for ln, raw := range strings.Split(text, "\n") {
		line := strings.TrimSpace(raw)
		if i := strings.IndexByte(line, '#'); i >= 0 && !strings.Contains(line[:i], `"`) {
			line = strings.TrimSpace(line[:i])
		}
		if line == "" {
			continue
		}
		lineNo := ln + 1
		switch {
		case strings.HasPrefix(line, "[["):
			if !strings.HasSuffix(line, "]]") {
				return nil, fmt.Errorf("%w: line %d: unterminated [[section]]", ErrSyntax, lineNo)
			}
			name := strings.TrimSpace(line[2 : len(line)-2])
			arr, ok := sectionArity[name]
			if !ok {
				return nil, fmt.Errorf("%w: line %d: [[%s]]", ErrUnknownSection, lineNo, name)
			}
			if !arr {
				return nil, fmt.Errorf("%w: line %d: section [%s] is singular, use [%s]", ErrSyntax, lineNo, name, name)
			}
			d.Sections = append(d.Sections, Section{Name: name, Array: true})
			cur = &d.Sections[len(d.Sections)-1]
		case strings.HasPrefix(line, "["):
			if !strings.HasSuffix(line, "]") {
				return nil, fmt.Errorf("%w: line %d: unterminated [section]", ErrSyntax, lineNo)
			}
			name := strings.TrimSpace(line[1 : len(line)-1])
			arr, ok := sectionArity[name]
			if !ok {
				return nil, fmt.Errorf("%w: line %d: [%s]", ErrUnknownSection, lineNo, name)
			}
			if arr {
				return nil, fmt.Errorf("%w: line %d: section [[%s]] repeats, use [[%s]]", ErrSyntax, lineNo, name, name)
			}
			for _, s := range d.Sections {
				if s.Name == name {
					return nil, fmt.Errorf("%w: line %d: duplicate section [%s]", ErrSyntax, lineNo, name)
				}
			}
			d.Sections = append(d.Sections, Section{Name: name})
			cur = &d.Sections[len(d.Sections)-1]
		default:
			eq := strings.IndexByte(line, '=')
			if eq < 0 {
				return nil, fmt.Errorf("%w: line %d: expected key = value", ErrSyntax, lineNo)
			}
			if cur == nil {
				return nil, fmt.Errorf("%w: line %d: key outside any section", ErrSyntax, lineNo)
			}
			key := strings.TrimSpace(line[:eq])
			if key == "" || strings.ContainsAny(key, " \t\"[]") {
				return nil, fmt.Errorf("%w: line %d: bad key %q", ErrSyntax, lineNo, key)
			}
			if _, dup := cur.get(key); dup {
				return nil, fmt.Errorf("%w: line %d: duplicate key %q in [%s]", ErrSyntax, lineNo, key, cur.Name)
			}
			val, err := parseValue(strings.TrimSpace(line[eq+1:]))
			if err != nil {
				return nil, fmt.Errorf("line %d, key %q: %w", lineNo, key, err)
			}
			cur.Keys = append(cur.Keys, KV{Key: key, Val: val})
		}
	}
	return d, nil
}

func parseValue(s string) (Value, error) {
	switch {
	case s == "":
		return Value{}, fmt.Errorf("%w: empty value", ErrSyntax)
	case s == "true":
		return Value{Kind: KindBool, Bool: true}, nil
	case s == "false":
		return Value{Kind: KindBool}, nil
	case s[0] == '"':
		str, err := strconv.Unquote(s)
		if err != nil {
			return Value{}, fmt.Errorf("%w: string %s", ErrSyntax, s)
		}
		return Value{Kind: KindString, Str: str}, nil
	default:
		f, err := strconv.ParseFloat(s, 64)
		if err != nil {
			if errors.Is(err, strconv.ErrRange) {
				return Value{}, fmt.Errorf("%w: %q overflows float64", ErrNonFinite, s)
			}
			return Value{}, fmt.Errorf("%w: %q is not a number, bool, or quoted string", ErrBadValue, s)
		}
		if math.IsNaN(f) || math.IsInf(f, 0) {
			return Value{}, fmt.Errorf("%w: %q", ErrNonFinite, s)
		}
		return Value{Kind: KindNumber, Num: f}, nil
	}
}

// Format writes the canonical serialization of the Doc: sections in
// order, one "key = value" per line, numbers in shortest round-trip
// form. Parse(Format(d)) reproduces d exactly.
func (d *Doc) Format() string {
	var b strings.Builder
	for i, s := range d.Sections {
		if i > 0 {
			b.WriteByte('\n')
		}
		if s.Array {
			fmt.Fprintf(&b, "[[%s]]\n", s.Name)
		} else {
			fmt.Fprintf(&b, "[%s]\n", s.Name)
		}
		for _, kv := range s.Keys {
			fmt.Fprintf(&b, "%s = %s\n", kv.Key, kv.Val.String())
		}
	}
	return b.String()
}

// binder wraps a Section with consumption tracking so Bind can reject
// keys the schema does not define.
type binder struct {
	sec  *Section
	used map[string]bool
	err  error
}

func newBinder(sec *Section) *binder {
	return &binder{sec: sec, used: make(map[string]bool)}
}

func (b *binder) fail(err error) {
	if b.err == nil {
		b.err = err
	}
}

// num reads a float key with a default.
func (b *binder) num(key string, def float64) float64 {
	b.used[key] = true
	v, ok := b.sec.get(key)
	if !ok {
		return def
	}
	if v.Kind != KindNumber {
		b.fail(fmt.Errorf("%w: [%s] %s must be a number", ErrBadValue, b.sec.Name, key))
		return def
	}
	return v.Num
}

// has reports whether the key is present (and marks it known).
func (b *binder) has(key string) bool {
	_, ok := b.sec.get(key)
	return ok
}

// integer reads an int-valued key; non-integral numbers are rejected.
func (b *binder) integer(key string, def int) int {
	b.used[key] = true
	v, ok := b.sec.get(key)
	if !ok {
		return def
	}
	if v.Kind != KindNumber || v.Num != math.Trunc(v.Num) {
		b.fail(fmt.Errorf("%w: [%s] %s must be an integer", ErrBadValue, b.sec.Name, key))
		return def
	}
	return int(v.Num)
}

func (b *binder) boolean(key string, def bool) bool {
	b.used[key] = true
	v, ok := b.sec.get(key)
	if !ok {
		return def
	}
	if v.Kind != KindBool {
		b.fail(fmt.Errorf("%w: [%s] %s must be true or false", ErrBadValue, b.sec.Name, key))
		return def
	}
	return v.Bool
}

func (b *binder) str(key, def string) string {
	b.used[key] = true
	v, ok := b.sec.get(key)
	if !ok {
		return def
	}
	if v.Kind != KindString {
		b.fail(fmt.Errorf("%w: [%s] %s must be a quoted string", ErrBadValue, b.sec.Name, key))
		return def
	}
	return v.Str
}

// finish reports the first binding error, or an ErrUnknownKey for any key
// the schema never consumed.
func (b *binder) finish() error {
	if b.err != nil {
		return b.err
	}
	var unknown []string
	for _, kv := range b.sec.Keys {
		if !b.used[kv.Key] {
			unknown = append(unknown, kv.Key)
		}
	}
	if len(unknown) > 0 {
		sort.Strings(unknown)
		return fmt.Errorf("%w: [%s] %s", ErrUnknownKey, b.sec.Name, strings.Join(unknown, ", "))
	}
	return nil
}
