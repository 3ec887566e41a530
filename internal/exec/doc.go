// Package exec is a vectorized Volcano-style executor for lplan trees.
//
// Operators exchange batches of typed column vectors (Batch: a
// types.Block and a selection vector over it) instead of single rows. A
// scan hands out its pages' own vectors; filters narrow selections over
// them; the key tables, the aggregate folds, the sort's comparator and the
// joins' gather read the vectors' typed slices. What reads rows — the
// spill writers, computed expressions and the cursor, whose interfaces are
// rows — gets them from one adapter, Batch.gather. Every operator that exceeds the
// memory budget spills through the storage layer — external sort runs,
// Grace hash-join partitions, hash-aggregate partitions,
// block-nested-loops inner materialization — so the IO counters of the
// backing store reflect the same trade-offs the cost model estimates. The
// executor exists for two reasons: to machine-check that transformed plans
// are equivalent (the paper's Definition 1 and the push-down
// transformations), and to validate the cost model's shape against
// measured page IO in the experiment harness.
//
// # A plan is compiled once and opened per run
//
// Compile turns an lplan tree into a Program: it validates the tree,
// numbers the operators in preorder and renders each one's label, resolves
// column positions and join keys, and compiles every expression against
// its input schema. A `?` compiles to a read of the run's parameter vector
// (WithParams), which every compiled expression takes when it evaluates,
// so any number of runs may open one Program at once. Open takes an
// operator tree a closed run left on the Program's free list — building
// one only on the Program's first open, or while every tree it has is in a
// run — copies the run's Executor settings into it and opens it; Close
// hands it back. So a run of a compiled plan builds nothing. Run compiles
// a tree that was not compiled ahead, then opens and drains it. The engine
// compiles each plan once, before it caches it.
//
// A plan's leaves are scans, or an Input, whose rows the run supplies
// (WithInput) the way it supplies parameters. View maintenance compiles its
// delta and its merge over an Input and runs them on NewInMemory, an
// executor without a store: its input is already in memory, so its
// operators keep their state there, never spill, and a hash aggregation
// emits its groups in first-seen order.
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
// "try again" path. A batch may hold fewer rows than the target: a scan
// hands its pages out one at a time. Consumers must size nothing to the
// target.
//
// # Batch ownership and reuse
//
// The *Batch passed to NextBatch is owned by the caller; the callee resets
// it and points it at vectors: a storage page's own, which never change,
// or ones the callee fills, its own or dst's (startOwn). Either way the
// vectors and the selection belong to the producer, are read-only to the
// consumer, and are valid only until the consumer's next NextBatch call on
// the same operator: producers reuse them to keep steady-state allocation
// at zero (batches, stores, key tables, aggregation states and scan queues
// are recycled across runs; Close returns them).
//
// # Trees kept between runs
//
// An iterator lives as long as its Program: each tree is re-opened by run
// after run, one at a time. What it keeps between runs is its compiled
// state (its spec, its children, the tree's Executor, whose fields each
// Open finds set to the new run's) and scratch that holds no value of a
// run and is sized by the batch: selection, group-id and pair slices. What
// it must not keep is anything a later run, or the shared pools, could be
// hurt by: Close hands every pooled object back (key tables, stores,
// batches, aggregation states, scan queues), drops its spill files, and
// lets go of what points into a run's data — vectors, rows, key rows — and
// of scratch sized by it — a join's match flags, a block's match
// positions — so a kept tree pins no page and no large buffer. Open, in turn, starts the
// operator from that state whatever the last run did: drained, closed
// mid-stream, cancelled, stopped by a limit, failed in Open or spilled.
// A run that panics inside an operator leaves its tree mid-call; the
// cursor still closes it, but the Program does not keep it.
//
// A row outlives its batch only as a copy: appended to vectors the
// consumer owns (a store batch: a hash join's build rows, a sort's input,
// a block nested-loops block, a merge join's run, an aggregation's
// finished groups), or gathered into a row (gather). A copied VARCHAR
// aliases the bytes of the vector it came from, which are never
// overwritten (Vector.Reset lets them go rather than reuse them), so the
// copy stays valid as long as it is held.
//
// # One operator shape
//
// Every operator's NextBatch reads its inputs' batches and fills dst itself,
// and one that stops because dst is full resumes where it stopped on the
// next call. The two hash operators share one key table (types.KeyTable, the
// one ANALYZE counts with): it looks a batch's key vectors up at once, by
// hash and typed equality, and no key is serialized on that path; both
// operators spill by key through one partitioner. The three joins share
// one back end (joinPairs): a front end puts candidate (left, right)
// position pairs and pads in it until they could fill the output batch,
// keep tests the residual once over the candidates (expr.Filter.Select
// over vectors of the columns it reads), and flush gathers the output
// columns by the pairs left. The hash join's front end resolves a probe
// batch's chains in one pass and walks them; block nested loops pair each
// inner row with the block rows its keys match, found by a kernel over the
// block's key vectors (types.EqualAt); merge join crosses a left run with
// the right run of equal keys. Both aggregations finish their
// groups column by column (groupByCtx.finish): keys and aggregate results
// into vectors, Having as a selection over them, bare-column outputs moved.
// The sort-based operators compare keys on vectors with one comparator
// (types.CompareAt): the sort orders the ordinals of a store batch and
// merges spilled runs by page position, and merge join and sort
// aggregation share a run reader (sort.go), which reads a sorted input as
// runs of equal keys across batch boundaries. Blocks and sort runs are cut
// row-exact, so the batch size never moves a block, a run or a page
// access.
//
// Each compiled operator records the order its output is in, lplan.Order,
// the rule the cost model charges by. Sort, merge join and sort aggregation
// sort an input only when its order does not cover their keys.
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
// NextBatch, recording into the collector's slot of its operator's number;
// obs.OpStats.RowsOut stays an exact row count (the sum of batch lengths)
// while NextCalls counts batch pulls.
//
// Batch size must never change results, page IO, or spill counts — only
// call granularity. The differential harness (TestConcurrentBatchDifferential
// at the repository root) runs every workload at batch size 1 against the
// default and asserts identical rows, IOStats, and spill counters across
// all optimizer modes.
package exec
