// Package lint assembles the gepetolint analyzer suite: the static
// checks that enforce the MapReduce engine's correctness invariants.
// Each analyzer guards one contract the type system cannot express —
// task determinism under re-execution, buffer ownership across the
// emit boundary, raw-key sort order, storage error surfacing, and —
// for the distributed cluster plane — lock-holding
// discipline around blocking operations, consistent atomic access,
// context-flow into retry loops, and gob-faithfulness of every type
// crossing the rpc transport.
package lint

import (
	"repro/internal/lint/analysis"
	"repro/internal/lint/atomicmix"
	"repro/internal/lint/ctxflow"
	"repro/internal/lint/emitretain"
	"repro/internal/lint/errdrop"
	"repro/internal/lint/gobwire"
	"repro/internal/lint/lockheld"
	"repro/internal/lint/rawkeyorder"
	"repro/internal/lint/taskdeterminism"
)

// Suite returns the full analyzer suite in stable (alphabetical) order.
func Suite() []*analysis.Analyzer {
	return []*analysis.Analyzer{
		atomicmix.Analyzer,
		ctxflow.Analyzer,
		emitretain.Analyzer,
		errdrop.Analyzer,
		gobwire.Analyzer,
		lockheld.Analyzer,
		rawkeyorder.Analyzer,
		taskdeterminism.Analyzer,
	}
}
