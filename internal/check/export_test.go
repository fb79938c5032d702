package check

// CountRowsWithBudget exposes countRows so tests can reach the state budget.
var CountRowsWithBudget = countRows
