package wal

// Crashed reports whether an injected crash point has fired.
func (l *Log) Crashed() bool { return l.crashed }

// LastLSN returns the highest assigned LSN.
func (l *Log) LastLSN() uint64 { return l.lsn }
