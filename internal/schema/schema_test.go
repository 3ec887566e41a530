package schema

import (
	"testing"

	"aggview/internal/types"
)

func sampleSchema() Schema {
	return Schema{
		{ID: ColID{Rel: "e", Name: "eno"}, Type: types.KindInt},
		{ID: ColID{Rel: "e", Name: "dno"}, Type: types.KindInt},
		{ID: ColID{Rel: "d", Name: "dno"}, Type: types.KindInt},
		{ID: ColID{Rel: "d", Name: "name"}, Type: types.KindString},
	}
}

func TestIndexOfQualified(t *testing.T) {
	s := sampleSchema()
	i, err := s.IndexOf(ColID{Rel: "d", Name: "dno"})
	if err != nil || i != 2 {
		t.Fatalf("IndexOf(d.dno) = %d, %v; want 2, nil", i, err)
	}
}

func TestIndexOfUnqualifiedUnique(t *testing.T) {
	s := sampleSchema()
	i, err := s.IndexOf(ColID{Name: "name"})
	if err != nil || i != 3 {
		t.Fatalf("IndexOf(name) = %d, %v; want 3, nil", i, err)
	}
}

func TestIndexOfUnqualifiedAmbiguous(t *testing.T) {
	s := sampleSchema()
	if _, err := s.IndexOf(ColID{Name: "dno"}); err == nil {
		t.Fatalf("IndexOf(dno) should be ambiguous")
	}
}

func TestIndexOfMissing(t *testing.T) {
	s := sampleSchema()
	i, err := s.IndexOf(ColID{Rel: "e", Name: "sal"})
	if err != nil || i != -1 {
		t.Fatalf("IndexOf(e.sal) = %d, %v; want -1, nil", i, err)
	}
}

func TestContains(t *testing.T) {
	s := sampleSchema()
	if !s.Contains(ColID{Rel: "e", Name: "eno"}) {
		t.Errorf("Contains(e.eno) = false")
	}
	if s.Contains(ColID{Name: "dno"}) {
		t.Errorf("Contains(ambiguous dno) = true")
	}
	if s.Contains(ColID{Rel: "e", Name: "nope"}) {
		t.Errorf("Contains(e.nope) = true")
	}
}

func TestConcatAndProject(t *testing.T) {
	s := sampleSchema()
	left, right := s[:2], s[2:]
	joined := Schema(left).Concat(Schema(right))
	if len(joined) != 4 {
		t.Fatalf("Concat length = %d", len(joined))
	}
	p, err := joined.Project([]ColID{{Rel: "d", Name: "name"}, {Rel: "e", Name: "eno"}})
	if err != nil {
		t.Fatal(err)
	}
	if p[0].ID.Name != "name" || p[1].ID.Name != "eno" {
		t.Fatalf("Project order wrong: %s", p)
	}
	if _, err := joined.Project([]ColID{{Rel: "x", Name: "y"}}); err == nil {
		t.Fatalf("Project of missing column should error")
	}
}

func TestRename(t *testing.T) {
	s := sampleSchema().Rename("t")
	for _, c := range s {
		if c.ID.Rel != "t" {
			t.Fatalf("Rename left rel %q", c.ID.Rel)
		}
	}
}

func TestKeyCoveredBy(t *testing.T) {
	k := Key{{Rel: "e", Name: "eno"}}
	cols := []ColID{{Rel: "e", Name: "dno"}, {Rel: "e", Name: "eno"}}
	if !k.CoveredBy(cols) {
		t.Errorf("key should be covered")
	}
	if k.CoveredBy([]ColID{{Rel: "e", Name: "dno"}}) {
		t.Errorf("key should not be covered")
	}
}

func TestKeyString(t *testing.T) {
	k := Key{{Rel: "x", Name: "eno"}, {Rel: "x", Name: "dno"}}
	if got := k.String(); got != "KEY(x.eno, x.dno)" {
		t.Fatalf("String = %q", got)
	}
}

func TestSchemaStringAndWidth(t *testing.T) {
	s := Schema{
		{ID: ColID{Rel: "t", Name: "a"}, Type: types.KindInt},
		{ID: ColID{Rel: "t", Name: "b"}, Type: types.KindString},
	}
	if got := s.String(); got != "(t.a INT, t.b VARCHAR)" {
		t.Fatalf("String = %q", got)
	}
	if s.AvgWidth() != 4+8+16 {
		t.Fatalf("AvgWidth = %d", s.AvgWidth())
	}
}

func TestColIDString(t *testing.T) {
	if (ColID{Name: "x"}).String() != "x" {
		t.Errorf("unqualified ColID string")
	}
	if (ColID{Rel: "r", Name: "x"}).String() != "r.x" {
		t.Errorf("qualified ColID string")
	}
}
