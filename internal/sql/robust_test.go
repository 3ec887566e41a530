package sql

import (
	"math/rand"
	"strings"
	"testing"
)

// TestParserNeverPanics throws pseudo-random token soup at the parser; it
// must return errors, never panic.
func TestParserNeverPanics(t *testing.T) {
	words := []string{
		"select", "from", "where", "group", "by", "having", "order", "limit",
		"(", ")", ",", ".", ";", "=", "<", ">", "<=", ">=", "<>", "+", "-",
		"*", "/", "and", "or", "not", "in", "exists", "as", "join", "on",
		"emp", "dept", "x", "y", "avg", "sum", "count", "1", "2.5", "'s'",
		"create", "table", "view", "index", "insert", "into", "values",
		"primary", "key", "foreign", "references", "int", "float", "between",
	}
	r := rand.New(rand.NewSource(1234))
	for i := 0; i < 3000; i++ {
		n := 1 + r.Intn(25)
		var b strings.Builder
		for j := 0; j < n; j++ {
			b.WriteString(words[r.Intn(len(words))])
			b.WriteByte(' ')
		}
		src := b.String()
		func() {
			defer func() {
				if rec := recover(); rec != nil {
					t.Fatalf("parser panicked on %q: %v", src, rec)
				}
			}()
			_, _ = Parse(src)
			_, _, _ = ParseScript(src)
		}()
	}
}

// TestLexerNeverPanics feeds random bytes to the lexer.
func TestLexerNeverPanics(t *testing.T) {
	r := rand.New(rand.NewSource(99))
	for i := 0; i < 2000; i++ {
		n := r.Intn(60)
		buf := make([]byte, n)
		for j := range buf {
			buf[j] = byte(32 + r.Intn(95))
		}
		src := string(buf)
		func() {
			defer func() {
				if rec := recover(); rec != nil {
					t.Fatalf("lexer panicked on %q: %v", src, rec)
				}
			}()
			_, _ = lex(src)
		}()
	}
}

// TestParseRoundTripStability: parsing a statement assembled from a parsed
// query's pieces must not error (smoke test that ExprString output is
// re-parseable for simple expressions).
func TestParseRoundTripStability(t *testing.T) {
	queries := []string{
		`select a, b from t where a = 1 and b < 2.5`,
		`select t.a from t where t.a >= 3 or not t.b = 'x'`,
		`select a + b * 2 - 1 from t where a / 2 > 3`,
	}
	for _, q := range queries {
		stmt, err := Parse(q)
		if err != nil {
			t.Fatalf("parse %q: %v", q, err)
		}
		sel := stmt.(*Select)
		rendered := "select 1 from t where " + ExprString(sel.Where)
		if _, err := Parse(rendered); err != nil {
			t.Fatalf("re-parse %q: %v", rendered, err)
		}
	}
}
