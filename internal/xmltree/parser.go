package xmltree

import (
	"bytes"
	"fmt"
	"io"
	"os"
	"strings"
	"sync"
)

// ParseError is a well-formedness or syntax error with its position in the
// input.
type ParseError struct {
	Line   int
	Column int
	Msg    string
}

func (e *ParseError) Error() string {
	return fmt.Sprintf("xml: %d:%d: %s", e.Line, e.Column, e.Msg)
}

// Options controls document parsing.
type Options struct {
	// PreserveWhitespace keeps text nodes that consist only of whitespace.
	// By default they are dropped, since the structural algorithms operate
	// on element structure and meaningful #PCDATA only.
	PreserveWhitespace bool
	// MaxDepth bounds element nesting to guard against hostile inputs.
	// Zero means the default of 1024.
	MaxDepth int
	// MaxBytes bounds the input size in bytes plus the replacement text of
	// every declared-entity reference expanded, so neither a long document
	// nor a short one with nested entities can exhaust memory. Past the cap
	// the parse fails with *SizeError; the input is not read to completion.
	// Predefined entities and character references are not counted: they
	// never expand past the reference itself. Zero means unlimited.
	MaxBytes int64
}

const defaultMaxDepth = 1024

// SizeError reports an input rejected for exceeding Options.MaxBytes. The
// API layer maps it to 413 Request Entity Too Large.
type SizeError struct {
	Limit int64
}

func (e *SizeError) Error() string {
	return fmt.Sprintf("xml: input exceeds %d-byte limit", e.Limit)
}

// Parse reads an entire XML document from r.
func Parse(r io.Reader) (*Document, error) {
	return ParseWithOptions(r, Options{})
}

// ParseWithOptions reads an entire XML document from r using opts.
func ParseWithOptions(r io.Reader, opts Options) (*Document, error) {
	data, err := readInput(r, opts.MaxBytes)
	if err != nil {
		return nil, err
	}
	return parseBytes(data, opts)
}

// readInput reads r to the end, failing with *SizeError once it holds more
// than maxBytes bytes (when maxBytes > 0).
func readInput(r io.Reader, maxBytes int64) ([]byte, error) {
	var data []byte
	var err error
	if maxBytes > 0 {
		// Read one byte past the cap so an exactly-at-limit input is
		// distinguishable from an over-limit one without buffering the
		// excess.
		data, err = io.ReadAll(io.LimitReader(r, maxBytes+1))
		if err == nil && int64(len(data)) > maxBytes {
			return nil, &SizeError{Limit: maxBytes}
		}
	} else {
		data, err = io.ReadAll(r)
	}
	if err != nil {
		return nil, fmt.Errorf("xml: reading input: %w", err)
	}
	return data, nil
}

// ParseString parses a document held in a string.
func ParseString(s string) (*Document, error) {
	st := treeStreamers.Get().(*Streamer)
	st.tree.str.Reset(s)
	return st.parseTree(&st.tree.str, Options{})
}

// ParseFile parses the XML document stored at path.
func ParseFile(path string) (*Document, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	return parseBytes(data, Options{})
}

// treeStreamers pools the streamers behind parseBytes, so a tree parse
// reuses the read window, stacks and scratch buffers of earlier ones.
var treeStreamers = sync.Pool{New: func() any { return new(Streamer) }}

// maxPooledText caps the text buffer a pooled streamer keeps. A tree parse
// never spills, so one long text run would otherwise pin its whole length
// in the pool. Re-growing costs only documents with longer runs: one of
// 240 KB parses about 25% slower and allocates 5x the bytes.
const maxPooledText = textSpillSize

// parseBytes parses src with a pooled streamer.
func parseBytes(src []byte, opts Options) (*Document, error) {
	s := treeStreamers.Get().(*Streamer)
	s.tree.bytes.Reset(src)
	return s.parseTree(&s.tree.bytes, opts)
}

// parseTree builds the document tree by driving the streamer over in with
// its tree sink switched on: the streamer's own scanner, DOCTYPE reader
// and entity expander decide everything, and the sink only records what
// they produce. The streamer goes back to the pool.
func (s *Streamer) parseTree(in io.Reader, opts Options) (*Document, error) {
	s.Reset(in, StreamOptions{Options: opts})
	s.tree.on = true
	var err error
	for err == nil {
		_, err = s.Next()
	}
	var doc *Document
	if err == io.EOF {
		doc, err = &Document{Doctype: s.doctype, Root: s.tree.root}, nil
	}
	s.releaseTree()
	treeStreamers.Put(s)
	return doc, err
}

// treeSink is the part of a Streamer that builds a Document for Parse. It
// mirrors the open-element stack with Nodes: openElement opens a Node,
// parseAttr attaches each attribute as it is expanded, flushText adds each
// kept text run and closeTop closes the Node.
type treeSink struct {
	on    bool
	bytes bytes.Reader
	str   strings.Reader
	root  *Node
	// path holds the open elements, innermost last. While a start tag is
	// being parsed its Node is already on top, one ahead of the stack.
	path []openNode
	// kids holds the children parsed so far of every open element, each
	// element's after those of its ancestors. Closing an element copies
	// its run into one right-sized Children slice.
	kids []*Node
}

// openNode is an open element and where its children start in kids.
type openNode struct {
	n     *Node
	first int
}

func (t *treeSink) open(name string) {
	n := &Node{Kind: Element, Name: name}
	if len(t.path) == 0 {
		t.root = n
	} else {
		t.kids = append(t.kids, n)
	}
	t.path = append(t.path, openNode{n: n, first: len(t.kids)})
}

func (t *treeSink) top() *Node { return t.path[len(t.path)-1].n }

func (t *treeSink) text(data string) { t.kids = append(t.kids, NewText(data)) }

func (t *treeSink) close() {
	o := t.path[len(t.path)-1]
	t.path = t.path[:len(t.path)-1]
	if kids := t.kids[o.first:]; len(kids) > 0 {
		o.n.Children = append([]*Node(nil), kids...)
		clear(kids)
		t.kids = t.kids[:o.first]
	}
}

// releaseTree drops every reference to the parsed document and its input,
// so a pooled streamer does not keep the last tree alive, along with any
// buffer one oversized document grew.
func (s *Streamer) releaseTree() {
	clear(s.tree.path[:cap(s.tree.path)])
	clear(s.tree.kids[:cap(s.tree.kids)])
	s.tree = treeSink{path: s.tree.path[:0], kids: s.tree.kids[:0]}
	s.in = nil
	s.doctype = nil
	s.err = nil
	if s.declared {
		s.entities = nil // declared values are substrings of the subset
	}
	if cap(s.textBuf) > maxPooledText {
		s.textBuf = nil
	}
	if len(s.buf) > streamBufSize {
		s.buf = nil
	}
}

func isNameStart(c byte) bool {
	return c == '_' || c == ':' || (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || c >= 0x80
}

func isNameChar(c byte) bool {
	return isNameStart(c) || c == '-' || c == '.' || (c >= '0' && c <= '9')
}

// registerSubsetEntities extracts general-entity declarations from the
// internal subset so that references in document content can be expanded.
// Parameter entities are left to the dtd package.
func registerSubsetEntities(subset string, entities map[string]string) {
	rest := subset
	for {
		i := strings.Index(rest, "<!ENTITY")
		if i < 0 {
			return
		}
		rest = rest[i+len("<!ENTITY"):]
		j := 0
		for j < len(rest) && isSpaceByte(rest[j]) {
			j++
		}
		if j < len(rest) && rest[j] == '%' {
			continue // parameter entity
		}
		k := j
		for k < len(rest) && isNameChar(rest[k]) {
			k++
		}
		if k == j {
			continue
		}
		name := rest[j:k]
		for k < len(rest) && isSpaceByte(rest[k]) {
			k++
		}
		if k >= len(rest) || (rest[k] != '"' && rest[k] != '\'') {
			continue // external entity or malformed; ignore
		}
		quote := rest[k]
		end := strings.IndexByte(rest[k+1:], quote)
		if end < 0 {
			return
		}
		entities[name] = rest[k+1 : k+1+end]
		rest = rest[k+1+end:]
	}
}

func isSpaceByte(c byte) bool {
	return c == ' ' || c == '\t' || c == '\r' || c == '\n'
}

// maxEntityDepth bounds nested entity expansion, which stops recursive
// entities; Options.MaxBytes bounds how much the expansion may produce.
const maxEntityDepth = 16

var predefinedEntities = map[string]bool{
	"lt": true, "gt": true, "amp": true, "apos": true, "quot": true,
}
