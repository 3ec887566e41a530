package obs

// Spans returns the completed spans in completion order.
func (c *Collector) Spans() []Span { return c.spans }
