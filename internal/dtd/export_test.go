package dtd

// RandomModel exposes the rewrite tests' model generator to the external
// analysis tests.
var RandomModel = randomModel
