package server

// The graph cache's fixed per-entry charge and probation size, for the
// external tests.
const (
	GraphEntryOverhead = graphEntryOverhead
	GraphProbation     = graphProbation
)
