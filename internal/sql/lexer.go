// Package sql implements the SQL front end: a lexer, an AST, and a
// recursive-descent parser for the dialect the engine supports —
// CREATE TABLE / VIEW / MATERIALIZED VIEW, INSERT, ANALYZE, EXPLAIN, and
// SELECT queries with joins, GROUP BY, HAVING, ORDER BY, derived tables,
// and (correlated) subqueries in the WHERE clause.
package sql

import (
	"fmt"
	"strings"
	"unicode"
)

// tokenKind classifies lexer tokens.
type tokenKind int

const (
	tokEOF tokenKind = iota
	tokIdent
	tokKeyword
	tokNumber
	tokString
	tokSymbol // punctuation and operators
)

type token struct {
	kind tokenKind
	text string // keywords upper-cased, idents lower-cased, symbols verbatim
	pos  int    // byte offset for error reporting
}

// keywords recognized by the lexer. Identifiers matching these (case
// insensitive) become tokKeyword with upper-case text.
var keywords = map[string]bool{
	"SELECT": true, "FROM": true, "WHERE": true, "GROUP": true, "BY": true,
	"HAVING": true, "ORDER": true, "LIMIT": true, "AS": true, "AND": true,
	"OR": true, "NOT": true, "IN": true, "EXISTS": true, "CREATE": true,
	"TABLE": true, "VIEW": true, "ON": true, "INSERT": true,
	"INTO": true, "VALUES": true, "PRIMARY": true, "KEY": true,
	"FOREIGN": true, "REFERENCES": true, "ANALYZE": true, "EXPLAIN": true,
	"JOIN": true, "INNER": true, "LEFT": true, "RIGHT": true, "FULL": true,
	"OUTER": true, "IS": true, "DISTINCT": true, "ALL": true, "ASC": true,
	"DESC": true, "TRUE": true, "FALSE": true, "NULL": true, "BETWEEN": true,
	"DROP": true, "MATERIALIZED": true, "INT": true, "INTEGER": true, "BIGINT": true,
	"FLOAT": true, "REAL": true, "DOUBLE": true, "PRECISION": true,
	"VARCHAR": true, "CHAR": true, "TEXT": true, "BOOLEAN": true, "BOOL": true,
}

// Byte classes of the scanner. The dialect's lexical rules are defined on
// bytes, each taken as the Latin-1 rune of the same value; the table is filled
// from the unicode predicates once so the scanning loops are one load per byte.
const (
	clsSpace uint8 = 1 << iota
	clsDigit
	clsIdentStart // letter, '_' or '$'
	clsIdent      // clsIdentStart or digit
)

var byteClass = func() (t [256]uint8) {
	for c := range t {
		r := rune(c)
		if unicode.IsSpace(r) {
			t[c] |= clsSpace
		}
		if unicode.IsDigit(r) {
			t[c] |= clsDigit | clsIdent
		}
		if unicode.IsLetter(r) || r == '_' || r == '$' {
			t[c] |= clsIdentStart | clsIdent
		}
	}
	return t
}()

// scanner finds token boundaries in a SQL string. It is the one definition of
// the dialect's lexical rules: lex materializes its tokens for the parser,
// CacheKey renders them as a plan-cache key, and collapseSpace as a statement
// label, so the three cannot disagree about where a token starts or ends. It
// allocates nothing.
type scanner struct {
	src string
	pos int
}

// next skips whitespace and `--` comments and scans one token, returning its
// kind and its source span [start, end). Keywords come back as tokIdent (lex
// tells them apart); a string literal's span includes its quotes. At the end
// of input it returns tokEOF with an empty span.
func (s *scanner) next() (kind tokenKind, start, end int, err error) {
	s.skipSpace()
	start = s.pos
	if start >= len(s.src) {
		return tokEOF, start, start, nil
	}
	c := s.src[start]
	switch {
	case byteClass[c]&clsIdentStart != 0:
		kind = tokIdent
		for s.pos < len(s.src) && byteClass[s.src[s.pos]]&clsIdent != 0 {
			s.pos++
		}
	case byteClass[c]&clsDigit != 0 || (c == '.' && start+1 < len(s.src) && byteClass[s.src[start+1]]&clsDigit != 0):
		kind = tokNumber
		s.scanNumber()
	case c == '\'':
		kind = tokString
		if !s.scanString() {
			return 0, 0, 0, fmt.Errorf("sql: unterminated string literal at offset %d", start)
		}
	default:
		kind = tokSymbol
		if !s.scanSymbol() {
			return 0, 0, 0, fmt.Errorf("sql: unexpected character %q at offset %d", c, start)
		}
	}
	return kind, start, s.pos, nil
}

func (s *scanner) skipSpace() {
	for s.pos < len(s.src) {
		c := s.src[s.pos]
		if c == '-' && s.pos+1 < len(s.src) && s.src[s.pos+1] == '-' {
			// Line comment.
			for s.pos < len(s.src) && s.src[s.pos] != '\n' {
				s.pos++
			}
			continue
		}
		if byteClass[c]&clsSpace == 0 {
			return
		}
		s.pos++
	}
}

// scanNumber consumes digits with at most one '.' and one exponent (an 'e'
// or 'E' and an optional sign). It is entered on a digit, or on a '.' that a
// digit follows.
func (s *scanner) scanNumber() {
	start := s.pos
	seenDot := false
	seenExp := false
	for s.pos < len(s.src) {
		c := s.src[s.pos]
		switch {
		case byteClass[c]&clsDigit != 0:
			s.pos++
		case c == '.' && !seenDot && !seenExp:
			seenDot = true
			s.pos++
		case (c == 'e' || c == 'E') && !seenExp && s.pos > start:
			seenExp = true
			s.pos++
			if s.pos < len(s.src) && (s.src[s.pos] == '+' || s.src[s.pos] == '-') {
				s.pos++
			}
		default:
			return
		}
	}
}

// scanString consumes a quoted literal, in which a doubled quote stands for
// one quote; it reports false when the input ends before the closing quote.
func (s *scanner) scanString() bool {
	s.pos++ // opening quote
	for s.pos < len(s.src) {
		if s.src[s.pos] != '\'' {
			s.pos++
			continue
		}
		if s.pos+1 < len(s.src) && s.src[s.pos+1] == '\'' {
			s.pos += 2 // escaped quote
			continue
		}
		s.pos++
		return true
	}
	return false
}

// scanSymbol consumes one operator or punctuation token, the two-character
// operators first; it reports false on a byte that starts none.
func (s *scanner) scanSymbol() bool {
	if s.pos+1 < len(s.src) {
		switch s.src[s.pos : s.pos+2] {
		case "<>", "<=", ">=", "!=", "==":
			s.pos += 2
			return true
		}
	}
	switch s.src[s.pos] {
	case '(', ')', ',', '.', ';', '=', '<', '>', '+', '-', '*', '/', '?':
		s.pos++
		return true
	}
	return false
}

// lex tokenizes the whole input.
func lex(src string) ([]token, error) {
	s := scanner{src: src}
	var toks []token
	for {
		kind, start, end, err := s.next()
		if err != nil {
			return nil, err
		}
		text := src[start:end]
		switch kind {
		case tokIdent:
			if upper := strings.ToUpper(text); keywords[upper] {
				kind, text = tokKeyword, upper
			} else {
				text = strings.ToLower(text)
			}
		case tokString:
			text = strings.ReplaceAll(text[1:len(text)-1], "''", "'")
		}
		toks = append(toks, token{kind: kind, text: text, pos: start})
		if kind == tokEOF {
			return toks, nil
		}
	}
}

// CacheKey returns the plan-cache key of a statement: a canonical rendering
// of its token stream, made in one pass by the scanner with no token slice
// and no AST. Whitespace and `--` comments are dropped, keywords and
// identifiers are folded to lower case, and tokens are joined by one space;
// numbers and symbols are kept as written, and a string literal keeps its
// quotes and its exact bytes, so 'R1', 'r1' and the identifier r1 all differ.
//
// Lexing the key yields the token stream of src, kind for kind and text for
// text (FuzzCacheKey): two statements with one key are therefore one
// statement to the parser, whatever their layout. The error, when src does
// not lex, is the one Parse reports.
func CacheKey(src string) (string, error) {
	s := scanner{src: src}
	var b strings.Builder
	b.Grow(len(src) + len(src)/4) // room for the spaces put around punctuation
	for {
		kind, start, end, err := s.next()
		if err != nil {
			return "", err
		}
		if kind == tokEOF {
			return b.String(), nil
		}
		if b.Len() > 0 {
			b.WriteByte(' ')
		}
		if kind != tokIdent {
			b.WriteString(src[start:end])
			continue
		}
		// ASCII folding is enough: lex folds the rest of an identifier's
		// bytes itself, and to the same text whether or not the ASCII ones
		// were folded first.
		for _, c := range []byte(src[start:end]) {
			if 'A' <= c && c <= 'Z' {
				c += 'a' - 'A'
			}
			b.WriteByte(c)
		}
	}
}

// collapseSpace returns src with every run of whitespace and comments
// between two tokens replaced by one space, and those at either end dropped.
// Unlike strings.Fields it leaves string literals alone and cannot splice a
// `--` comment onto the next line, so the result lexes to src's tokens. src
// must lex; the scan stops at the first error.
func collapseSpace(src string) string {
	s := scanner{src: src}
	var b strings.Builder
	prevEnd := 0
	for {
		kind, start, end, err := s.next()
		if err != nil || kind == tokEOF {
			return b.String()
		}
		if b.Len() > 0 && start > prevEnd {
			b.WriteByte(' ')
		}
		b.WriteString(src[start:end])
		prevEnd = end
	}
}
