package xmltree

import "io"

// LegacyParseWithOptions is ParseWithOptions over the frozen tree parser of
// legacy_test.go, the oracle the xmltree_test suites compare Parse and the
// streamer against.
func LegacyParseWithOptions(r io.Reader, opts Options) (*Document, error) {
	data, err := readInput(r, opts.MaxBytes)
	if err != nil {
		return nil, err
	}
	return legacyParseBytes(data, opts)
}
