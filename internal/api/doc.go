package api

import (
	"bytes"
	"errors"
	"net/http"

	"dtdevolve/internal/xmltree"
)

// parseDocument parses an XML request body under the body budget, which
// also bounds what its declared entities may expand to.
func parseDocument(data []byte) (*xmltree.Document, error) {
	return xmltree.ParseWithOptions(bytes.NewReader(data), xmltree.Options{MaxBytes: maxBodyBytes})
}

// parseStatus maps a parseDocument failure onto a status: a document
// whose entities expand past the budget is 413 like an over-limit body,
// malformed XML is the client's 400.
func parseStatus(err error) int {
	var se *xmltree.SizeError
	if errors.As(err, &se) {
		return http.StatusRequestEntityTooLarge
	}
	return http.StatusBadRequest
}
