// Package datagen synthesizes the experiment databases: the paper's
// running emp/dept example with tunable cardinalities and selectivities,
// and a TPC-D-like decision-support star schema (the paper motivates its
// problem with the TPC-D benchmark). Generation is deterministic per seed.
package datagen

import (
	"fmt"
	"math/rand"

	"aggview/internal/catalog"
	"aggview/internal/schema"
	"aggview/internal/types"
)

// EmpDeptSpec parametrizes the emp/dept generator.
type EmpDeptSpec struct {
	Seed        int64
	Employees   int
	Departments int
	AgeMin      int // inclusive
	AgeMax      int // exclusive
	SalaryMin   float64
	SalarySpan  float64
	BudgetMin   float64
	BudgetSpan  float64
	// PayloadCols adds extra VARCHAR columns to emp to widen tuples (the
	// paper's "increased size of projection columns" disadvantage, E12).
	PayloadCols int
	// PayloadLen is the string length of each payload column (default 24).
	PayloadLen int
	// DeptPayloadCols adds extra VARCHAR columns to dept. A wide dept is
	// the regime where pre-aggregating emp pays: the per-department group
	// table fits in memory while dept itself does not.
	DeptPayloadCols int
	// NullFraction is the probability (0..1) that each nullable column —
	// emp.dno, emp.sal, emp.age, dept.budget — is NULL in a generated row.
	// Primary keys stay non-NULL. A NULL emp.dno matches no dept row (NULL
	// join keys never compare equal), so any positive fraction yields
	// unmatched preserved-side rows under outer joins and NULL group keys
	// under GROUP BY dno. Zero, the default, generates fully populated data
	// identical to earlier versions.
	NullFraction float64
}

// DefaultEmpDept returns a mid-sized configuration.
func DefaultEmpDept() EmpDeptSpec {
	return EmpDeptSpec{
		Seed:        1,
		Employees:   20000,
		Departments: 200,
		AgeMin:      18,
		AgeMax:      68,
		SalaryMin:   30000,
		SalarySpan:  90000,
		BudgetMin:   100000,
		BudgetSpan:  900000,
	}
}

// LoadEmpDept creates and populates emp and dept per the spec, analyzing
// both. emp(eno pk, dno fk, sal, age [, pad0..padN]); dept(dno pk, budget).
//
// The load runs as one catalog write batch (opened here unless the caller
// already has one), so per-row inserts build a single private snapshot and
// publish once at the end instead of once per row.
func LoadEmpDept(cat *catalog.Catalog, spec EmpDeptSpec) (err error) {
	if spec.PayloadLen <= 0 {
		spec.PayloadLen = 24
	}
	if spec.Departments <= 0 || spec.Employees <= 0 {
		return fmt.Errorf("datagen: need positive cardinalities, got %d/%d", spec.Employees, spec.Departments)
	}
	if own := !cat.Writing(); own {
		cat.BeginWrite()
		defer func() {
			if err != nil {
				cat.Discard()
			} else {
				cat.Publish()
			}
		}()
	}
	empCols := []schema.Column{
		{ID: schema.ColID{Name: "eno"}, Type: types.KindInt},
		{ID: schema.ColID{Name: "dno"}, Type: types.KindInt},
		{ID: schema.ColID{Name: "sal"}, Type: types.KindFloat},
		{ID: schema.ColID{Name: "age"}, Type: types.KindInt},
	}
	for i := 0; i < spec.PayloadCols; i++ {
		empCols = append(empCols, schema.Column{
			ID: schema.ColID{Name: fmt.Sprintf("pad%d", i)}, Type: types.KindString})
	}
	emp, err := cat.CreateTable("emp", empCols, []string{"eno"}, []schema.ForeignKey{
		{Cols: []string{"dno"}, RefTable: "dept", RefCols: []string{"dno"}},
	})
	if err != nil {
		return err
	}
	deptCols := []schema.Column{
		{ID: schema.ColID{Name: "dno"}, Type: types.KindInt},
		{ID: schema.ColID{Name: "budget"}, Type: types.KindFloat},
	}
	for i := 0; i < spec.DeptPayloadCols; i++ {
		deptCols = append(deptCols, schema.Column{
			ID: schema.ColID{Name: fmt.Sprintf("dpad%d", i)}, Type: types.KindString})
	}
	dept, err := cat.CreateTable("dept", deptCols, []string{"dno"}, nil)
	if err != nil {
		return err
	}

	r := rand.New(rand.NewSource(spec.Seed))
	pad := func() types.Value {
		b := make([]byte, spec.PayloadLen)
		for i := range b {
			b[i] = byte('a' + r.Intn(26))
		}
		return types.NewString(string(b))
	}
	// nullable replaces a value with NULL at the spec's rate. The guard
	// short-circuits before drawing, so NullFraction == 0 consumes the same
	// random sequence as before the knob existed and default datasets stay
	// byte-identical across versions.
	nullable := func(v types.Value) types.Value {
		if spec.NullFraction > 0 && r.Float64() < spec.NullFraction {
			return types.Null()
		}
		return v
	}
	for i := 0; i < spec.Employees; i++ {
		row := types.Row{
			types.NewInt(int64(i)),
			nullable(types.NewInt(int64(r.Intn(spec.Departments)))),
			nullable(types.NewFloat(spec.SalaryMin + r.Float64()*spec.SalarySpan)),
			nullable(types.NewInt(int64(spec.AgeMin + r.Intn(spec.AgeMax-spec.AgeMin)))),
		}
		for p := 0; p < spec.PayloadCols; p++ {
			row = append(row, pad())
		}
		if err := cat.Insert(emp, row); err != nil {
			return err
		}
	}
	for i := 0; i < spec.Departments; i++ {
		row := types.Row{
			types.NewInt(int64(i)),
			nullable(types.NewFloat(spec.BudgetMin + r.Float64()*spec.BudgetSpan)),
		}
		for p := 0; p < spec.DeptPayloadCols; p++ {
			row = append(row, pad())
		}
		if err := cat.Insert(dept, row); err != nil {
			return err
		}
	}
	if err := cat.Analyze(emp); err != nil {
		return err
	}
	return cat.Analyze(dept)
}

// TPCDSpec parametrizes the TPC-D-like generator. Lineitems is the driving
// cardinality; the other tables scale from it with ratios similar to the
// benchmark's.
type TPCDSpec struct {
	Seed      int64
	Lineitems int
}

// DefaultTPCD returns a laptop-scale configuration.
func DefaultTPCD() TPCDSpec { return TPCDSpec{Seed: 7, Lineitems: 60000} }

// LoadTPCD creates part, supplier, customer, orders and lineitem. Like
// LoadEmpDept, the whole load is one catalog write batch.
func LoadTPCD(cat *catalog.Catalog, spec TPCDSpec) (err error) {
	if spec.Lineitems <= 0 {
		return fmt.Errorf("datagen: need positive lineitem count")
	}
	if own := !cat.Writing(); own {
		cat.BeginWrite()
		defer func() {
			if err != nil {
				cat.Discard()
			} else {
				cat.Publish()
			}
		}()
	}
	nOrders := max(spec.Lineitems/4, 1)
	nCustomers := max(spec.Lineitems/40, 1)
	nParts := max(spec.Lineitems/5, 1)
	nSuppliers := max(spec.Lineitems/100, 1)

	part, err := cat.CreateTable("part", []schema.Column{
		{ID: schema.ColID{Name: "partkey"}, Type: types.KindInt},
		{ID: schema.ColID{Name: "brand"}, Type: types.KindInt},
		{ID: schema.ColID{Name: "size"}, Type: types.KindInt},
		{ID: schema.ColID{Name: "retailprice"}, Type: types.KindFloat},
	}, []string{"partkey"}, nil)
	if err != nil {
		return err
	}
	supplier, err := cat.CreateTable("supplier", []schema.Column{
		{ID: schema.ColID{Name: "suppkey"}, Type: types.KindInt},
		{ID: schema.ColID{Name: "nation"}, Type: types.KindInt},
	}, []string{"suppkey"}, nil)
	if err != nil {
		return err
	}
	customer, err := cat.CreateTable("customer", []schema.Column{
		{ID: schema.ColID{Name: "custkey"}, Type: types.KindInt},
		{ID: schema.ColID{Name: "nation"}, Type: types.KindInt},
		{ID: schema.ColID{Name: "segment"}, Type: types.KindString},
	}, []string{"custkey"}, nil)
	if err != nil {
		return err
	}
	orders, err := cat.CreateTable("orders", []schema.Column{
		{ID: schema.ColID{Name: "orderkey"}, Type: types.KindInt},
		{ID: schema.ColID{Name: "custkey"}, Type: types.KindInt},
		{ID: schema.ColID{Name: "odate"}, Type: types.KindInt},
		{ID: schema.ColID{Name: "total"}, Type: types.KindFloat},
	}, []string{"orderkey"}, []schema.ForeignKey{
		{Cols: []string{"custkey"}, RefTable: "customer", RefCols: []string{"custkey"}},
	})
	if err != nil {
		return err
	}
	lineitem, err := cat.CreateTable("lineitem", []schema.Column{
		{ID: schema.ColID{Name: "lineid"}, Type: types.KindInt},
		{ID: schema.ColID{Name: "orderkey"}, Type: types.KindInt},
		{ID: schema.ColID{Name: "partkey"}, Type: types.KindInt},
		{ID: schema.ColID{Name: "suppkey"}, Type: types.KindInt},
		{ID: schema.ColID{Name: "qty"}, Type: types.KindFloat},
		{ID: schema.ColID{Name: "price"}, Type: types.KindFloat},
		{ID: schema.ColID{Name: "discount"}, Type: types.KindFloat},
	}, []string{"lineid"}, []schema.ForeignKey{
		{Cols: []string{"orderkey"}, RefTable: "orders", RefCols: []string{"orderkey"}},
		{Cols: []string{"partkey"}, RefTable: "part", RefCols: []string{"partkey"}},
		{Cols: []string{"suppkey"}, RefTable: "supplier", RefCols: []string{"suppkey"}},
	})
	if err != nil {
		return err
	}

	r := rand.New(rand.NewSource(spec.Seed))
	segments := []string{"BUILDING", "AUTOMOBILE", "MACHINERY", "HOUSEHOLD", "FURNITURE"}

	for i := 0; i < nParts; i++ {
		if err := cat.Insert(part, types.Row{
			types.NewInt(int64(i)),
			types.NewInt(int64(r.Intn(25))),
			types.NewInt(int64(1 + r.Intn(50))),
			types.NewFloat(900 + r.Float64()*1100),
		}); err != nil {
			return err
		}
	}
	for i := 0; i < nSuppliers; i++ {
		if err := cat.Insert(supplier, types.Row{
			types.NewInt(int64(i)),
			types.NewInt(int64(r.Intn(25))),
		}); err != nil {
			return err
		}
	}
	for i := 0; i < nCustomers; i++ {
		if err := cat.Insert(customer, types.Row{
			types.NewInt(int64(i)),
			types.NewInt(int64(r.Intn(25))),
			types.NewString(segments[r.Intn(len(segments))]),
		}); err != nil {
			return err
		}
	}
	for i := 0; i < nOrders; i++ {
		if err := cat.Insert(orders, types.Row{
			types.NewInt(int64(i)),
			types.NewInt(int64(r.Intn(nCustomers))),
			types.NewInt(int64(19920101 + r.Intn(2500))),
			types.NewFloat(1000 + r.Float64()*99000),
		}); err != nil {
			return err
		}
	}
	for i := 0; i < spec.Lineitems; i++ {
		if err := cat.Insert(lineitem, types.Row{
			types.NewInt(int64(i)),
			types.NewInt(int64(r.Intn(nOrders))),
			types.NewInt(int64(r.Intn(nParts))),
			types.NewInt(int64(r.Intn(nSuppliers))),
			types.NewFloat(float64(1 + r.Intn(50))),
			types.NewFloat(900 + r.Float64()*1100),
			types.NewFloat(float64(r.Intn(11)) / 100),
		}); err != nil {
			return err
		}
	}
	for _, t := range []*catalog.Table{part, supplier, customer, orders, lineitem} {
		if err := cat.Analyze(t); err != nil {
			return err
		}
	}
	return nil
}

func max(a, b int) int {
	if a > b {
		return a
	}
	return b
}
