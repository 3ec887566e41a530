package sql

import "testing"

// rollupTexts are the repo benchmark's rollup-hot statements
// (bench/workloads.go, a separate module): the texts whose plan-cache hits
// CacheKey is on the path of.
var rollupTexts = []string{
	`select region, product, sum(amount) as total, count(*) as n from sales group by region, product`,
	`select region, sum(amount) as total, count(*) as n, avg(qty) as avgq from sales group by region`,
	`select product, count(*) as n from sales where region = 'r1' group by product`,
	`select product, sum(amount) as total, count(*) as n from sales group by product`,
	`select region, count(*) as n, avg(qty) as avgq from sales where region = 'r2' group by region`,
}

func mustKey(t *testing.T, src string) string {
	t.Helper()
	k, err := CacheKey(src)
	if err != nil {
		t.Fatalf("CacheKey(%q): %v", src, err)
	}
	return k
}

// TestCacheKeyCollapses: layout, keyword and identifier case, and comments
// are not part of a statement's identity.
func TestCacheKeyCollapses(t *testing.T) {
	const want = "select e1 . sal , count ( * ) from emp e1 where e1 . age <= 22 group by e1 . sal"
	for _, src := range []string{
		`select e1.sal, count(*) from emp e1 where e1.age <= 22 group by e1.sal`,
		"SELECT E1.Sal , COUNT( * )\n\tFROM Emp e1\n\tWHERE e1.AGE<=22\n\tGROUP BY e1.sal",
		"  select e1.sal,count(*)from emp e1 -- the young ones\nwhere e1.age<=22 group by e1.sal -- end",
		"-- leading comment\nselect e1 . sal , count ( * ) from emp e1 where e1 . age <= 22 group by e1 . sal\n",
		want,
	} {
		if got := mustKey(t, src); got != want {
			t.Errorf("CacheKey(%q)\n got %q\nwant %q", src, got, want)
		}
	}
	if got := mustKey(t, " \n -- nothing\n"); got != "" {
		t.Errorf("key of an empty statement = %q", got)
	}
}

// TestCacheKeyKeepsLiteralsApart: everything that can change a statement's
// answer stays in its key, byte for byte.
func TestCacheKeyKeepsLiteralsApart(t *testing.T) {
	distinct := [][2]string{
		{`select * from t where r = 'R1'`, `select * from t where r = 'r1'`},
		{`select * from t where r = 'a  b'`, `select * from t where r = 'a b'`},
		{`select * from t where r = 'it''s'`, `select * from t where r = 'its'`},
		{`select * from t where r = 'it''s'`, `select * from t where r = 'it' 's'`},
		{`select * from t where r = '-- not a comment'`, `select * from t where r = ''`},
		{`select * from t where a = 1.0`, `select * from t where a = 1.00`},
		{`select * from t where a = x`, `select * from t where a = 'x'`},
		{`select * from t where a = ?`, `select * from t where a = 1`},
		{`select a, b from t`, `select b, a from t`},
	}
	for _, p := range distinct {
		if a, b := mustKey(t, p[0]), mustKey(t, p[1]); a == b {
			t.Errorf("%q and %q share the key %q", p[0], p[1], a)
		}
	}
	if got, want := mustKey(t, `SELECT 'It''s  A' , X`), `select 'It''s  A' , x`; got != want {
		t.Errorf("string literal not kept verbatim: got %q, want %q", got, want)
	}
}

// TestCacheKeyFollowsLexer: where the lexer's rules are subtle, the key
// shows the same tokens the parser will see.
func TestCacheKeyFollowsLexer(t *testing.T) {
	for _, c := range []struct{ src, want string }{
		{`a - -1`, `a - - 1`}, // two minus tokens, not a comment
		{"a--b\n", `a`},       // a comment to the end of the line
		{"a--b\nc", `a c`},
		{`a<=b`, `a <= b`},     // one two-character operator
		{`a < = b`, `a < = b`}, // two operators; the parser rejects it
		{`a<>b!=c==d`, `a <> b != c == d`},
		{`1.5e3+.5`, `1.5e3 + .5`}, // numbers as written
		{`1e+5 1e +5`, `1e+5 1e + 5`},
		{`1..2`, `1. .2`},
		{`t.a`, `t . a`},
		{`x1 1x`, `x1 1 x`},
		{`'a''b' 'a' 'b'`, `'a''b' 'a' 'b'`},
		{`select 1;`, `select 1 ;`},
	} {
		if got := mustKey(t, c.src); got != c.want {
			t.Errorf("CacheKey(%q) = %q, want %q", c.src, got, c.want)
		}
	}
	for _, bad := range []string{`select 'unterminated`, `select @`, `a ! b`, "select 'x' from t where a = 'y"} {
		_, lexErr := lex(bad)
		_, keyErr := CacheKey(bad)
		if lexErr == nil || keyErr == nil || lexErr.Error() != keyErr.Error() {
			t.Errorf("%q: lex error %v, key error %v; want the same error", bad, lexErr, keyErr)
		}
	}
}

// checkCacheKey is the key function's contract, for any input: CacheKey
// fails exactly when lex does, and otherwise the key lexes to the input's
// own token stream and is a fixed point. collapseSpace, the scanner's other
// rendering, is held to the same token stream.
func checkCacheKey(t *testing.T, src string) {
	t.Helper()
	toks, lexErr := lex(src)
	key, keyErr := CacheKey(src)
	if (lexErr == nil) != (keyErr == nil) {
		t.Fatalf("%q: lex error %v but key error %v", src, lexErr, keyErr)
	}
	if lexErr != nil {
		return
	}
	for _, rendered := range []string{key, collapseSpace(src)} {
		again, err := lex(rendered)
		if err != nil {
			t.Fatalf("%q: rendering %q does not lex: %v", src, rendered, err)
		}
		if len(again) != len(toks) {
			t.Fatalf("%q: %d tokens, rendering %q has %d", src, len(toks), rendered, len(again))
		}
		for i := range toks {
			if again[i].kind != toks[i].kind || again[i].text != toks[i].text {
				t.Fatalf("%q: token %d is (%d, %q), in rendering %q it is (%d, %q)",
					src, i, toks[i].kind, toks[i].text, rendered, again[i].kind, again[i].text)
			}
		}
	}
	if k2, err := CacheKey(key); err != nil || k2 != key {
		t.Fatalf("%q: key %q is not a fixed point: %q, %v", src, key, k2, err)
	}
}

// TestCacheKeyRoundTrip runs the contract over hand-picked inputs, the
// non-ASCII ones included (the lexer reads bytes as Latin-1 runes and folds
// identifiers with the Unicode tables).
func TestCacheKeyRoundTrip(t *testing.T) {
	for _, src := range append([]string{
		"", ";", "SELECT", "Select É from T", "sel\xc4\xaaect", "a\xaab", "x\xa0y\x85z", "'\xff\x00'", "\xc3a",
		"a -- b", "a - -- b\n - c", "1e", "1e+", ".e", "1.2.3e4e5", "?,?", "''''", "''''''",
	}, rollupTexts...) {
		checkCacheKey(t, src)
	}
}

// FuzzCacheKey holds CacheKey to its contract on arbitrary bytes. The
// committed corpus under testdata/fuzz/FuzzCacheKey (the repo benchmark's
// statement texts and the parser tests' statements) replays on every
// `go test`; `make fuzz` searches beyond it.
func FuzzCacheKey(f *testing.F) {
	for _, src := range rollupTexts {
		f.Add(src)
	}
	f.Add("SELECT e1.sal, 'it''s' FROM emp -- comment\nWHERE a <= 1.5e3;")
	f.Fuzz(func(t *testing.T, src string) { checkCacheKey(t, src) })
}

// TestParseScriptTextsLex: a script statement's label lexes to the
// statement's own tokens — strings.Fields, which it used to be built with,
// rewrote string literals and let a comment swallow the following line.
func TestParseScriptTextsLex(t *testing.T) {
	_, texts, err := ParseScript("select 'a  b'  ,\n\t'c\nd' from t -- all of it\nwhere x = 1 ; select y from u")
	if err != nil {
		t.Fatal(err)
	}
	want := []string{"select 'a  b' , 'c\nd' from t where x = 1", "select y from u"}
	if len(texts) != len(want) || texts[0] != want[0] || texts[1] != want[1] {
		t.Fatalf("texts = %q, want %q", texts, want)
	}
}

// BenchmarkCacheKey and BenchmarkParse are the two ways to identify a
// statement: the key a plan-cache hit computes, and the parse it no longer
// needs.
func BenchmarkCacheKey(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := CacheKey(rollupTexts[i%len(rollupTexts)]); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkParse(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := Parse(rollupTexts[i%len(rollupTexts)]); err != nil {
			b.Fatal(err)
		}
	}
}
