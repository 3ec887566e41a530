// Package exec is a vectorized Volcano-style executor for lplan trees.
//
// Operators exchange reusable row vectors (Batch) instead of single rows.
// Every operator that exceeds the memory budget spills through the storage
// layer — external sort runs, Grace hash-join partitions, hash-aggregate
// partitions, block-nested-loops inner materialization — so the IO counters
// of the backing store reflect the same trade-offs the cost model
// estimates. The executor exists for two reasons: to machine-check that
// transformed plans are equivalent (the paper's Definition 1 and the
// push-down transformations), and to validate the cost model's shape
// against measured page IO in the experiment harness.
//
// # A plan is compiled once and opened per run
//
// Compile turns an lplan tree into a Program: it validates the tree, renders
// each operator's label, resolves column positions and join keys, and
// compiles every expression against its input schema. A `?` compiles to a
// read of the run's parameter vector (WithParams), which every compiled
// expression takes when it evaluates, so a Program holds nothing a run
// writes and any number of runs may open one at once. Open builds and opens
// the iterators, which are all a run allocates for its plan; OpenCursor is
// Compile then Open, for a tree that was not compiled ahead. The engine
// compiles each plan once, before it caches it.
//
// The rest of this comment is the executor contract: what an operator must
// guarantee, and what it may assume of its inputs.
//
// # Operators are batch iterators
//
// Every operator implements BatchIterator:
//
//	Open() error            // acquire resources; may consume inputs (pipeline breakers)
//	NextBatch(*Batch) error // reset and fill the destination batch
//	Close() error           // release resources; idempotent at any lifecycle point
//
// NextBatch resets dst, then fills it with up to the executor's configured
// batch size rows (DefaultBatchSize unless overridden with WithBatchSize).
// End of stream is an empty batch after a nil-error return; NextBatch after
// end of stream keeps returning an empty batch. A returned batch is never
// empty in mid-stream — operators keep pulling their inputs until they
// have at least one row or the stream ends — so consumers need no
// "try again" path. A refilling operator (a selective filter) may overrun
// the target by less than one input batch; consumers must size nothing to
// the target.
//
// # Batch ownership and reuse
//
// The *Batch passed to NextBatch is owned by the caller; the callee resets
// and fills it. The Rows slice is valid only until the caller's next
// NextBatch call on the same operator — operators and cursors reuse the
// vector to keep steady-state allocation at zero (batches come from an
// internal sync.Pool via getBatch/putBatch; Close returns them).
//
// The types.Row values inside a batch are NOT recycled: once emitted, a
// row is immutable and remains valid indefinitely. Downstream operators
// may retain rows (hash tables, sort buffers, group states) without
// copying; nobody may mutate a row after emitting or receiving it. Rows
// read from storage alias buffer-pool page memory, which the storage layer
// likewise never mutates in place.
//
// # One operator shape
//
// Every operator's NextBatch reads its inputs' batches and fills dst itself,
// and one that stops because dst is full resumes where it stopped on the
// next call. The two hash operators share one key table (keytable.go): they
// hash a batch's key columns in one pass, then probe by hash and typed
// equality — no key is ever serialized on that path. Merge join and sort
// aggregation share a run reader (sort.go), which reads a sorted input as
// runs of equal keys across batch boundaries: sort aggregation folds each
// run into one group, merge join crosses a left run with the right run of
// equal keys. Block nested loops cut their outer blocks row-exact from the
// outer's batches, so the batch size never moves a block boundary.
//
// Each compiled operator records the columns its output is sorted on by
// construction: a Sort's keys, a merge join's left keys (without a
// projection), a sort aggregation's grouping columns (without output
// expressions), and a filter's input order. Merge join and sort aggregation
// sort an input only when that order does not start with their keys.
//
// # Governance and metering at batch boundaries
//
// The Cursor ticks the governor once per batch (govern.TickRows), not once
// per row; when a batch crosses the row limit, the allowed prefix is still
// delivered and the limit error surfaces on the pull after the last
// permitted row — observably identical to row-at-a-time enforcement.
// Cancellation is polled at batch boundaries and, independently, at page
// granularity inside the storage layer via the session IO hook, so even a
// fully cached query notices cancellation mid-batch. The metering wrapper
// (meteredIter) opens one attribution frame and one clock pair per
// NextBatch; obs.OpStats.RowsOut stays an exact row count (the sum of
// batch lengths) while NextCalls counts batch pulls.
//
// Batch size must never change results, page IO, or spill counts — only
// call granularity. The differential harness (TestConcurrentBatchDifferential
// at the repository root) runs every workload at batch size 1 against the
// default and asserts identical rows, IOStats, and spill counters across
// all optimizer modes.
package exec
