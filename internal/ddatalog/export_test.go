package ddatalog

// Fixtures and helpers shared with the external test package
// (joinorder_test.go), which needs the diagnosis programs and so cannot
// live in this package.
var (
	Figure3      = figure3
	ReachProgram = reachProgram
	SortedRows   = sortedRows
)
