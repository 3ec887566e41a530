package govern

import "context"

// New returns a governor readied by Init.
func New(ctx context.Context, limits Limits) *Governor {
	g := new(Governor)
	g.Init(ctx, limits)
	return g
}
