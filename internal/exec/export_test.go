package exec

import "aggview/internal/lplan"

// OpenCursor compiles the plan and opens it: Compile, then Open.
func (e *Executor) OpenCursor(n lplan.Node) (*Cursor, error) {
	p, err := Compile(n)
	if err != nil {
		return nil, err
	}
	return e.Open(p)
}
