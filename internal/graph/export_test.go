package graph

// CheckFootprint exposes the oracle and replay checks to the external
// domain tests, which import the model builders and so cannot live in
// this package.
var CheckFootprint = checkFootprint
