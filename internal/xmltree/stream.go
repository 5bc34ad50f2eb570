package xmltree

// Streaming pull parser: the package's one XML scanner. A Streamer reads
// the document through a fixed-size window and emits Start/Text/End
// events, so ingest memory is proportional to the open-element path (plus
// the longest single text run), never the document. Parse builds its trees
// from the same scanner through an internal tree sink (parser.go). The
// frozen recursive-descent parser in legacy_test.go is the oracle: the
// stream and tree tests and FuzzParseMatchesLegacy pin the accepted
// language, kept nodes and canonical bytes against it.
//
// Three optional taps make the streamer a drop-in for the ingest pipeline:
//
//   - Symbols: an Interner (in practice an intern.Overlay) resolving element
//     names straight out of the read window, so events carry dense label
//     IDs and canonical (pointer-stable) name strings with zero
//     steady-state allocation;
//   - Canon: an io.Writer receiving the canonical serialization of the
//     document — byte-identical to Document.String() of the tree parse —
//     so the WAL and docstore can journal the exact bytes the tree path
//     would have, without materializing the document;
//   - MaxBytes (via Options): budget for input plus declared-entity
//     expansion, enforced as the cursor advances and as entities expand,
//     and reported as *SizeError.

import (
	"bytes"
	"fmt"
	"io"
	"strings"
	"unicode"
	"unicode/utf8"
)

// EventKind identifies a streaming parse event.
type EventKind uint8

const (
	// StartEvent marks an element open (also emitted for self-closing
	// elements, immediately followed by the EndEvent).
	StartEvent EventKind = iota + 1
	// TextEvent marks one kept text node (a character-data run or CDATA
	// section that Parse appends as a Text child).
	TextEvent
	// EndEvent marks an element close.
	EndEvent
)

// Event is one streaming parse event. For Start/End events, Name is the
// element tag (the canonical interned string when the streamer has a
// symbol table) and ID its interned label (None without one). For Text
// events, NonWS reports whether the node carries non-whitespace characters
// — exactly Node.HasText of the parsed tree's text node; the data itself
// is not retained.
type Event struct {
	Kind  EventKind
	Name  string
	ID    int32
	NonWS bool
}

// Interner resolves a byte-spelled element name to a dense label ID and a
// canonical string without copying on the found path. *intern.Overlay
// satisfies it; xmltree declares the interface (rather than importing the
// intern package) because intern already imports xmltree.
type Interner interface {
	InternBytes(b []byte) (int32, string)
}

// StreamOptions configures a Streamer. The embedded Options carry the
// knobs of Parse (PreserveWhitespace, MaxDepth, MaxBytes) with identical
// semantics.
type StreamOptions struct {
	Options
	// Symbols, when set, resolves element names to interned IDs.
	Symbols Interner
	// Canon, when set, receives the canonical serialization of the
	// document, byte-identical to what Document.String() would render for
	// the tree parse of the same input.
	Canon io.Writer
}

const (
	// streamBufSize is the initial read-window size. The window grows only
	// when a single token (name, attribute literal, markup test) exceeds
	// it.
	streamBufSize = 32 << 10
	// textSpillSize is the text-run buffer high-water mark: once a run is
	// known to be kept, buffered text beyond this size is flushed to the
	// canonical writer (or discarded when there is none) so an arbitrarily
	// long run does not hold memory.
	textSpillSize = 64 << 10
)

const (
	streamProlog = iota
	streamContent
	streamEpilog
	streamDone
)

// Streamer is a pull parser over an io.Reader. Obtain one with
// StreamParse, drive it with Next or Events, and reuse it across documents
// with Reset — all internal buffers are retained.
type Streamer struct {
	in       io.Reader
	opts     StreamOptions
	maxDepth int

	buf     []byte
	r, w    int
	inEOF   bool
	readErr error

	consumed int64
	// expanded counts the replacement text of declared entities expanded
	// so far; MaxBytes bounds consumed+expanded.
	expanded int64
	line     int
	col      int

	entities map[string]string
	// names caches element-name strings when there is no symbol table
	// (nameString).
	names map[string]string
	// declared reports that an internal subset may have added to or
	// changed entities since it held only the predefined five.
	declared bool
	doctype  *Doctype

	stack   []streamFrame
	state   int
	started bool

	// Current text run. runActive distinguishes "no run" from a run that
	// expanded to nothing (the tree keeps the latter as an empty node
	// under PreserveWhitespace). textSpilled means a kept prefix has
	// already been written to the canonical output; textNonWS is sticky
	// across spills.
	textBuf     []byte
	runActive   bool
	textNonWS   bool
	textSpilled bool

	// Attribute scratch for the start tag being parsed: an arena of the
	// names seen (for the duplicate check and canonical output) and the
	// expanded-value buffer.
	attrNames  []byte
	attrStarts []int
	valBuf     []byte

	pend         [4]Event
	ipend, npend int

	err error

	// tree builds a Document when Parse drives the streamer (parser.go).
	tree treeSink
}

// streamFrame is one open element. open tracks whether the canonical
// start tag is still unclosed (no '>' written), which is also how the
// writer decides between <a/> and <a></a> — exactly the tree serializer's
// "no kept children" test.
type streamFrame struct {
	name string
	id   int32
	open bool
}

// StreamParse returns a pull parser over r. No input is read until the
// first Next call.
func StreamParse(r io.Reader, opts StreamOptions) *Streamer {
	s := &Streamer{}
	s.Reset(r, opts)
	return s
}

// Reset rewinds the streamer onto a fresh input, keeping all internal
// buffers for reuse.
func (s *Streamer) Reset(r io.Reader, opts StreamOptions) {
	s.in = r
	s.opts = opts
	s.maxDepth = opts.MaxDepth
	if s.maxDepth <= 0 {
		s.maxDepth = defaultMaxDepth
	}
	if s.buf == nil {
		s.buf = make([]byte, streamBufSize)
	}
	s.r, s.w = 0, 0
	s.inEOF = false
	s.readErr = nil
	s.consumed, s.expanded = 0, 0
	s.line, s.col = 1, 1
	if s.entities == nil || s.declared {
		s.entities = map[string]string{"lt": "<", "gt": ">", "amp": "&", "apos": "'", "quot": `"`}
		s.declared = false
	}
	s.doctype = nil
	s.stack = s.stack[:0]
	s.state = streamProlog
	s.started = false
	s.textBuf = s.textBuf[:0]
	s.runActive, s.textNonWS, s.textSpilled = false, false, false
	s.attrNames = s.attrNames[:0]
	s.attrStarts = s.attrStarts[:0]
	s.ipend, s.npend = 0, 0
	s.err = nil
}

// Doctype returns the document's DOCTYPE once parsed, or nil.
func (s *Streamer) Doctype() *Doctype { return s.doctype }

// Consumed returns the number of input bytes consumed so far.
func (s *Streamer) Consumed() int64 { return s.consumed }

// Next returns the next event. It returns io.EOF after the document
// completed cleanly; any other error is terminal and sticky.
func (s *Streamer) Next() (Event, error) {
	if s.ipend < s.npend {
		ev := s.pend[s.ipend]
		s.ipend++
		return ev, nil
	}
	if s.err != nil {
		return Event{}, s.err
	}
	ev, err := s.step()
	if err != nil {
		if s.readErr != nil {
			// The input failed underneath the parser; report that rather
			// than the truncation artifact, like the tree path's ReadAll.
			err = fmt.Errorf("xml: reading input: %w", s.readErr)
		}
		s.err = err
		return Event{}, err
	}
	return ev, nil
}

// Events invokes fn for every event of the document in order. A successful
// parse returns nil; otherwise the first parse or callback error.
func (s *Streamer) Events(fn func(Event) error) error {
	for {
		ev, err := s.Next()
		if err == io.EOF {
			return nil
		}
		if err != nil {
			return err
		}
		if err := fn(ev); err != nil {
			return err
		}
	}
}

// step advances the parser until at least one event is pending or the
// document ends, then returns the first pending event.
func (s *Streamer) step() (Event, error) {
	for {
		s.ipend, s.npend = 0, 0
		var err error
		switch s.state {
		case streamProlog:
			err = s.stepProlog()
		case streamContent:
			err = s.stepContent()
		case streamEpilog:
			err = s.stepEpilog()
		case streamDone:
			err = io.EOF
		}
		if err != nil {
			return Event{}, err
		}
		if s.ipend < s.npend {
			ev := s.pend[s.ipend]
			s.ipend++
			return ev, nil
		}
		if err := s.checkBudget(); err != nil {
			return Event{}, err
		}
	}
}

func (s *Streamer) queue(ev Event) {
	s.pend[s.npend] = ev
	s.npend++
}

func (s *Streamer) checkBudget() error {
	if s.opts.MaxBytes > 0 && s.consumed+s.expanded > s.opts.MaxBytes {
		return &SizeError{Limit: s.opts.MaxBytes}
	}
	return nil
}

// chargeExpansion counts n bytes of declared-entity replacement text
// against the budget before they are expanded.
func (s *Streamer) chargeExpansion(n int) error {
	s.expanded += int64(n)
	return s.checkBudget()
}

func (s *Streamer) errf(format string, args ...any) error {
	return &ParseError{Line: s.line, Column: s.col, Msg: fmt.Sprintf(format, args...)}
}

// ---- window management ----

// fill ensures at least n bytes are buffered ahead of the cursor, reading
// more input as needed, and returns the count available (less than n only
// at end of input). Buffered bytes survive compaction, so token slices
// taken at the cursor stay valid until the next fill.
func (s *Streamer) fill(n int) int {
	if s.w-s.r >= n {
		return s.w - s.r
	}
	if len(s.buf)-s.r < n {
		copy(s.buf, s.buf[s.r:s.w])
		s.w -= s.r
		s.r = 0
		if n > len(s.buf) {
			grown := make([]byte, max(2*len(s.buf), n))
			copy(grown, s.buf[:s.w])
			s.buf = grown
		}
	}
	for s.w-s.r < n && !s.inEOF && s.readErr == nil {
		m, err := s.in.Read(s.buf[s.w:])
		s.w += m
		if err == io.EOF {
			s.inEOF = true
		} else if err != nil {
			s.readErr = err
		}
	}
	return s.w - s.r
}

func (s *Streamer) eof() bool { return s.fill(1) == 0 }

func (s *Streamer) peek() byte {
	if s.fill(1) == 0 {
		return 0
	}
	return s.buf[s.r]
}

// advance consumes one buffered byte; callers must have established
// availability via peek/fill/eof.
func (s *Streamer) advance() byte {
	c := s.buf[s.r]
	s.r++
	s.consumed++
	if c == '\n' {
		s.line++
		s.col = 1
	} else {
		s.col++
	}
	return c
}

// advanceSpan consumes n buffered bytes, maintaining line/column.
func (s *Streamer) advanceSpan(n int) {
	b := s.buf[s.r : s.r+n]
	if i := bytes.LastIndexByte(b, '\n'); i >= 0 {
		s.line += bytes.Count(b[:i+1], newline)
		s.col = n - i
	} else {
		s.col += n
	}
	s.r += n
	s.consumed += int64(n)
}

var newline = []byte{'\n'}

func (s *Streamer) hasPrefix(str string) bool {
	if s.fill(len(str)) < len(str) {
		return false
	}
	return string(s.buf[s.r:s.r+len(str)]) == str
}

func (s *Streamer) expect(str string) error {
	if !s.hasPrefix(str) {
		return s.errf("expected %q", str)
	}
	s.advanceSpan(len(str))
	return nil
}

func (s *Streamer) skipSpace() {
	for !s.eof() {
		switch s.buf[s.r] {
		case ' ', '\t', '\r', '\n':
			s.advance()
		default:
			return
		}
	}
}

// readName scans one XML name and returns it as a window slice, valid only
// until the next fill — consume (intern, compare, copy) immediately.
func (s *Streamer) readName() ([]byte, error) {
	if s.eof() || !isNameStart(s.buf[s.r]) {
		return nil, s.errf("expected a name")
	}
	i := 1
	for {
		for s.r+i < s.w && isNameChar(s.buf[s.r+i]) {
			i++
		}
		if s.r+i < s.w || s.fill(i+1) <= i {
			break // a non-name byte, or the end of input
		}
	}
	nb := s.buf[s.r : s.r+i]
	s.advanceSpan(i)
	return nb, nil
}

// readQuoted scans one quoted literal and returns its raw body as a window
// slice, valid only until the next fill.
func (s *Streamer) readQuoted() ([]byte, error) {
	if s.eof() || (s.buf[s.r] != '"' && s.buf[s.r] != '\'') {
		return nil, s.errf("expected a quoted literal")
	}
	quote := s.advance()
	i := 0
	for {
		if s.fill(i+1) <= i {
			return nil, s.errf("unterminated literal")
		}
		if s.buf[s.r+i] == quote {
			break
		}
		i++
	}
	v := s.buf[s.r : s.r+i]
	s.advanceSpan(i + 1) // body plus closing quote
	return v, nil
}

// ---- canonical output ----

func (s *Streamer) cwrite(b []byte) error {
	if s.opts.Canon == nil || len(b) == 0 {
		return nil
	}
	if _, err := s.opts.Canon.Write(b); err != nil {
		return fmt.Errorf("xml: writing canonical output: %w", err)
	}
	return nil
}

func (s *Streamer) cstring(str string) error {
	if s.opts.Canon == nil || len(str) == 0 {
		return nil
	}
	if _, err := io.WriteString(s.opts.Canon, str); err != nil {
		return fmt.Errorf("xml: writing canonical output: %w", err)
	}
	return nil
}

// canonOpenParent closes the pending '>' of the innermost start tag, if
// any: called right before a kept child (element or text) is written.
func (s *Streamer) canonOpenParent() error {
	if n := len(s.stack); n > 0 && s.stack[n-1].open {
		s.stack[n-1].open = false
		return s.cstring(">")
	}
	return nil
}

// escTo writes b to the canonical output escaped byte for byte as
// EscapeText does, or as EscapeAttr does when attr is set.
func (s *Streamer) escTo(b []byte, attr bool) error {
	if s.opts.Canon == nil {
		return nil
	}
	start := 0
	for i, c := range b {
		var esc string
		switch {
		case c == '&':
			esc = "&amp;"
		case c == '<':
			esc = "&lt;"
		case c == '>':
			esc = "&gt;"
		case attr && c == '"':
			esc = "&quot;"
		case attr && c == '\'':
			esc = "&apos;"
		default:
			continue
		}
		if err := s.cwrite(b[start:i]); err != nil {
			return err
		}
		if err := s.cstring(esc); err != nil {
			return err
		}
		start = i + 1
	}
	return s.cwrite(b[start:])
}

// ---- prolog and epilog ----

func (s *Streamer) stepProlog() error {
	if !s.started {
		s.started = true
		if err := s.cstring("<?xml version=\"1.0\"?>\n"); err != nil {
			return err
		}
		// Optional byte-order mark: skipped without touching the column.
		if s.fill(3) >= 3 && string(s.buf[s.r:s.r+3]) == "\xef\xbb\xbf" {
			s.r += 3
			s.consumed += 3
		}
	}
	s.skipSpace()
	if s.eof() {
		return s.errf("no root element")
	}
	switch {
	case s.hasPrefix("<?"):
		return s.skipPI()
	case s.hasPrefix("<!--"):
		return s.skipComment()
	case s.hasPrefix("<!DOCTYPE"):
		if s.doctype != nil {
			return s.errf("multiple DOCTYPE declarations")
		}
		dt, err := s.parseDoctype()
		if err != nil {
			return err
		}
		s.doctype = dt
		if s.opts.Canon != nil {
			var b strings.Builder
			writeDoctype(&b, dt)
			if err := s.cstring(b.String()); err != nil {
				return err
			}
		}
		return nil
	case s.peek() == '<':
		return s.openElement()
	default:
		return s.errf("unexpected character %q before root element", s.peek())
	}
}

func (s *Streamer) stepEpilog() error {
	for {
		if err := s.checkBudget(); err != nil {
			return err
		}
		s.skipSpace()
		if s.eof() {
			s.state = streamDone
			return io.EOF
		}
		switch {
		case s.hasPrefix("<!--"):
			if err := s.skipComment(); err != nil {
				return err
			}
		case s.hasPrefix("<?"):
			if err := s.skipPI(); err != nil {
				return err
			}
		default:
			return s.errf("content after root element")
		}
	}
}

func (s *Streamer) skipPI() error {
	s.advanceSpan(2) // "<?"
	for {
		if s.eof() {
			return s.errf("unterminated processing instruction")
		}
		if s.hasPrefix("?>") {
			s.advanceSpan(2)
			return nil
		}
		s.advance()
	}
}

func (s *Streamer) skipComment() error {
	s.advanceSpan(4) // "<!--"
	for {
		if s.eof() {
			return s.errf("unterminated comment")
		}
		if s.hasPrefix("-->") {
			s.advanceSpan(3)
			return nil
		}
		if s.hasPrefix("--") {
			return s.errf(`"--" is not allowed inside comments`)
		}
		s.advance()
	}
}

func (s *Streamer) parseDoctype() (*Doctype, error) {
	if err := s.expect("<!DOCTYPE"); err != nil {
		return nil, err
	}
	s.skipSpace()
	nb, err := s.readName()
	if err != nil {
		return nil, err
	}
	dt := &Doctype{Name: string(nb)}
	s.skipSpace()
	if s.hasPrefix("PUBLIC") {
		s.advanceSpan(len("PUBLIC"))
		s.skipSpace()
		qb, err := s.readQuoted()
		if err != nil {
			return nil, err
		}
		dt.PublicID = string(qb)
		s.skipSpace()
		if qb, err = s.readQuoted(); err != nil {
			return nil, err
		}
		dt.SystemID = string(qb)
	} else if s.hasPrefix("SYSTEM") {
		s.advanceSpan(len("SYSTEM"))
		s.skipSpace()
		qb, err := s.readQuoted()
		if err != nil {
			return nil, err
		}
		dt.SystemID = string(qb)
	}
	s.skipSpace()
	if !s.eof() && s.peek() == '[' {
		s.advance()
		var subset []byte
		for {
			if err := s.checkBudget(); err != nil {
				return nil, err
			}
			if s.eof() {
				return nil, s.errf("unterminated internal DTD subset")
			}
			c := s.peek()
			switch {
			case c == ']':
				dt.InternalSubset = string(subset)
				s.advance()
			case c == '<':
				if subset, err = s.captureSubsetMarkup(subset); err != nil {
					return nil, err
				}
				continue
			default:
				subset = append(subset, c)
				s.advance()
				continue
			}
			break
		}
		registerSubsetEntities(dt.InternalSubset, s.entities)
		s.declared = true
		s.skipSpace()
	}
	if s.eof() || s.peek() != '>' {
		return nil, s.errf("expected '>' to close DOCTYPE")
	}
	s.advance()
	return dt, nil
}

// captureSubsetMarkup consumes one markup declaration, PI, or comment
// inside the internal subset, honoring quoted strings, appending the raw
// bytes to subset.
func (s *Streamer) captureSubsetMarkup(subset []byte) ([]byte, error) {
	if s.hasPrefix("<!--") {
		subset = append(subset, "<!--"...)
		s.advanceSpan(4)
		for {
			if s.eof() {
				return subset, s.errf("unterminated comment")
			}
			if s.hasPrefix("-->") {
				subset = append(subset, "-->"...)
				s.advanceSpan(3)
				return subset, nil
			}
			if s.hasPrefix("--") {
				return subset, s.errf(`"--" is not allowed inside comments`)
			}
			subset = append(subset, s.advance())
		}
	}
	if s.hasPrefix("<?") {
		subset = append(subset, "<?"...)
		s.advanceSpan(2)
		for {
			if s.eof() {
				return subset, s.errf("unterminated processing instruction")
			}
			if s.hasPrefix("?>") {
				subset = append(subset, "?>"...)
				s.advanceSpan(2)
				return subset, nil
			}
			subset = append(subset, s.advance())
		}
	}
	// <!ELEMENT ...>, <!ATTLIST ...>, <!ENTITY ...>, <!NOTATION ...>
	for !s.eof() {
		c := s.advance()
		subset = append(subset, c)
		if c == '"' || c == '\'' {
			for !s.eof() && s.peek() != c {
				subset = append(subset, s.advance())
			}
			if s.eof() {
				return subset, s.errf("unterminated literal in DTD internal subset")
			}
			subset = append(subset, s.advance())
			continue
		}
		if c == '>' {
			return subset, nil
		}
	}
	return subset, s.errf("unterminated declaration in DTD internal subset")
}

// ---- element structure ----

func (s *Streamer) top() *streamFrame { return &s.stack[len(s.stack)-1] }

// maxNames bounds the element-name cache of a streamer without a symbol
// table, so a document of many distinct names cannot make it grow without
// limit.
const maxNames = 256

// nameString returns the element name spelled by nb. Without a symbol
// table the streamer keeps its own small cache of name strings, so the
// repeated tags of a document, and of later documents through a reused
// streamer, share one allocation each.
// dtdvet:noalloc
func (s *Streamer) nameString(nb []byte) string {
	if name, ok := s.names[string(nb)]; ok { // dtdvet:allow noalloc -- map-index string(b) is the compiler's no-copy special case
		return name
	}
	name := string(nb) // dtdvet:allow noalloc -- first sighting of a name only; the source always passes Symbols
	if len(s.names) < maxNames {
		if s.names == nil {
			s.names = make(map[string]string) // dtdvet:allow noalloc -- once per streamer
		}
		s.names[name] = name
	}
	return name
}

// openElement parses one start tag at the cursor (the '<' not yet
// consumed), pushes its frame and queues the Start event (plus the End
// event when self-closing). The tree sink opens the element's Node as soon
// as its name is read, so the attributes can attach to it.
// Window, stack, arena and value buffers are all reused across documents.
// dtdvet:noalloc
func (s *Streamer) openElement() error {
	if len(s.stack) > s.maxDepth {
		return s.errf("element nesting exceeds %d", s.maxDepth) // dtdvet:allow noalloc -- cold error path, the parse is over
	}
	s.advance() // '<'
	nb, err := s.readName()
	if err != nil {
		return err
	}
	var id int32
	var name string
	if s.opts.Symbols != nil {
		id, name = s.opts.Symbols.InternBytes(nb)
	} else {
		name = s.nameString(nb)
	}
	if s.tree.on {
		s.tree.open(name)
	}
	if err := s.canonOpenParent(); err != nil {
		return err
	}
	if s.opts.Canon != nil {
		if err := s.cstring("<"); err != nil {
			return err
		}
		if err := s.cwrite(nb); err != nil {
			return err
		}
	}
	s.attrNames = s.attrNames[:0]
	s.attrStarts = s.attrStarts[:0]
	for {
		s.skipSpace()
		if s.eof() {
			return s.errf("unterminated start tag <%s", name) // dtdvet:allow noalloc -- cold error path, the parse is over
		}
		switch {
		case s.hasPrefix("/>"):
			s.advanceSpan(2)
			s.stack = append(s.stack, streamFrame{name: name, id: id, open: true})
			s.queue(Event{Kind: StartEvent, Name: name, ID: id})
			return s.closeTop()
		case s.buf[s.r] == '>':
			s.advance()
			s.stack = append(s.stack, streamFrame{name: name, id: id, open: true})
			s.state = streamContent
			s.queue(Event{Kind: StartEvent, Name: name, ID: id})
			return nil
		default:
			if err := s.parseAttr(name); err != nil {
				return err
			}
		}
	}
}

// parseAttr parses one attribute of the start tag of element name,
// duplicate-checking against the names already seen and writing the
// canonical ` name="value"` form.
// dtdvet:noalloc
func (s *Streamer) parseAttr(elem string) error {
	anb, err := s.readName()
	if err != nil {
		return s.errf("malformed start tag <%s", elem) // dtdvet:allow noalloc -- cold error path, the parse is over
	}
	// Duplicate check against the arena of prior names.
	for i := 0; i < len(s.attrStarts); i++ {
		end := len(s.attrNames)
		if i+1 < len(s.attrStarts) {
			end = s.attrStarts[i+1]
		}
		if string(s.attrNames[s.attrStarts[i]:end]) == string(anb) { // dtdvet:allow noalloc -- string(b)==string(b) comparison does not allocate
			return s.errf("duplicate attribute %q on <%s>", string(anb), elem) // dtdvet:allow noalloc -- cold error path, the parse is over
		}
	}
	s.attrStarts = append(s.attrStarts, len(s.attrNames))
	s.attrNames = append(s.attrNames, anb...)
	nameStart := s.attrStarts[len(s.attrStarts)-1]
	s.skipSpace()
	if s.eof() || s.buf[s.r] != '=' {
		return s.errf("attribute %q missing '='", string(s.attrNames[nameStart:])) // dtdvet:allow noalloc -- cold error path, the parse is over
	}
	s.advance()
	s.skipSpace()
	raw, err := s.readQuoted()
	if err != nil {
		return err
	}
	if s.valBuf, err = s.expandBytes(s.valBuf[:0], raw); err != nil {
		return err
	}
	if s.tree.on {
		n := s.tree.top()
		n.Attrs = append(n.Attrs, Attr{Name: string(s.attrNames[nameStart:]), Value: string(s.valBuf)}) // dtdvet:allow noalloc -- tree sink only; streaming consumers leave it off
	}
	if s.opts.Canon != nil {
		if err := s.cstring(" "); err != nil {
			return err
		}
		if err := s.cwrite(s.attrNames[nameStart:]); err != nil {
			return err
		}
		if err := s.cstring(`="`); err != nil {
			return err
		}
		if err := s.escTo(s.valBuf, true); err != nil {
			return err
		}
		if err := s.cstring(`"`); err != nil {
			return err
		}
	}
	return nil
}

// closeTop pops the innermost open element, queues its End event, writes
// its canonical close and moves to the epilog when the root closed.
// dtdvet:noalloc
func (s *Streamer) closeTop() error {
	f := s.stack[len(s.stack)-1]
	s.stack = s.stack[:len(s.stack)-1]
	if s.tree.on {
		s.tree.close()
	}
	if s.opts.Canon != nil {
		if f.open {
			if err := s.cstring("/>"); err != nil {
				return err
			}
		} else {
			if err := s.cstring("</"); err != nil {
				return err
			}
			if err := s.cstring(f.name); err != nil {
				return err
			}
			if err := s.cstring(">"); err != nil {
				return err
			}
		}
	}
	s.queue(Event{Kind: EndEvent, Name: f.name, ID: f.id})
	if len(s.stack) == 0 {
		s.state = streamEpilog
		return s.cstring("\n")
	}
	return nil
}

// stepContent processes one content item: a text chunk, one entity
// reference, or one piece of markup.
// dtdvet:noalloc
func (s *Streamer) stepContent() error {
	if s.eof() {
		return s.errf("missing end tag </%s>", s.top().name) // dtdvet:allow noalloc -- cold error path, the parse is over
	}
	c := s.buf[s.r]
	if c != '<' && c != '&' {
		return s.textChunk()
	}
	if c == '&' {
		return s.entityInText()
	}
	// Markup ends the text run, whatever it turns out to be.
	if err := s.flushText(); err != nil {
		return err
	}
	var next byte
	if s.fill(2) >= 2 {
		next = s.buf[s.r+1]
	}
	switch {
	case next == '/':
		return s.closeTag()
	case next == '!' && s.hasPrefix("<!--"):
		return s.skipComment()
	case next == '!' && s.hasPrefix("<![CDATA["):
		return s.cdata()
	case next == '?':
		return s.skipPI()
	default:
		return s.openElement()
	}
}

// textChunk consumes the buffered run of plain character data up to the
// next markup or entity reference.
// dtdvet:noalloc
func (s *Streamer) textChunk() error {
	n := s.fill(1)
	b := s.buf[s.r : s.r+n]
	i := 0
	for i < n && b[i] != '<' && b[i] != '&' {
		i++
	}
	s.runActive = true
	s.textBuf = append(s.textBuf, b[:i]...)
	s.advanceSpan(i)
	return s.spillText()
}

// entityInText expands one entity reference inside character data. The
// search for ';' stops at the next '<', which ends the run: a reference
// never spans markup.
// dtdvet:noalloc
func (s *Streamer) entityInText() error {
	i := 1 // past '&'
	for {
		if s.fill(i+1) <= i {
			// EOF inside the run: the missing end tag is the error, as
			// for any run the input ends in.
			return s.errf("missing end tag </%s>", s.top().name) // dtdvet:allow noalloc -- cold error path, the parse is over
		}
		c := s.buf[s.r+i]
		if c == ';' {
			break
		}
		if c == '<' {
			return s.errf("unterminated entity reference")
		}
		i++
	}
	ref := s.buf[s.r+1 : s.r+i]
	s.runActive = true
	var err error
	if s.textBuf, err = s.appendRef(s.textBuf, ref, 0); err != nil {
		return err
	}
	s.advanceSpan(i + 1)
	return s.spillText()
}

func (s *Streamer) closeTag() error {
	s.advanceSpan(2) // "</"
	nb, err := s.readName()
	if err != nil {
		return err
	}
	top := s.top()
	if string(nb) != top.name {
		return s.errf("end tag </%s> does not match <%s>", string(nb), top.name)
	}
	s.skipSpace()
	if s.eof() || s.buf[s.r] != '>' {
		return s.errf("malformed end tag </%s", top.name)
	}
	s.advance()
	return s.closeTop()
}

func (s *Streamer) cdata() error {
	s.advanceSpan(len("<![CDATA["))
	s.runActive = true
	for {
		if err := s.checkBudget(); err != nil {
			return err
		}
		if s.eof() {
			return s.errf("unterminated CDATA section")
		}
		if s.hasPrefix("]]>") {
			s.advanceSpan(3)
			break
		}
		s.textBuf = append(s.textBuf, s.buf[s.r])
		s.advance()
		if err := s.spillText(); err != nil {
			return err
		}
	}
	// A CDATA section is its own text node, never merged with adjacent
	// character data.
	return s.flushText()
}

// ---- text-run bookkeeping ----

// spillText bounds the text-run buffer: once a run is provably kept, the
// complete-rune prefix is flushed to the canonical output (or dropped when
// there is none) so a long run cannot grow memory. Runs that are still
// all-whitespace keep buffering, since their fate is unknown until the
// run ends. A tree-building streamer never spills: the Node needs the
// whole run.
func (s *Streamer) spillText() error {
	if len(s.textBuf) < textSpillSize || s.tree.on {
		return nil
	}
	// Decide on the complete-rune prefix so a multi-byte whitespace rune
	// split at the boundary cannot flip the drop decision.
	cut := completeRuneBoundary(s.textBuf)
	if cut == 0 {
		return nil
	}
	if !allSpaceBytes(s.textBuf[:cut]) {
		s.textNonWS = true
	}
	if !s.textNonWS && !s.opts.PreserveWhitespace {
		return nil
	}
	if !s.textSpilled {
		if err := s.canonOpenParent(); err != nil {
			return err
		}
		s.textSpilled = true
	}
	if err := s.escTo(s.textBuf[:cut], false); err != nil {
		return err
	}
	s.textBuf = append(s.textBuf[:0], s.textBuf[cut:]...)
	return nil
}

// flushText ends the current text run, applying the keep rule
// (PreserveWhitespace, or non-whitespace content) and queueing the Text
// event; the tree sink appends the kept run as a text Node.
// dtdvet:noalloc
func (s *Streamer) flushText() error {
	if !s.runActive {
		return nil
	}
	nonWS := s.textNonWS || !allSpaceBytes(s.textBuf)
	keep := s.opts.PreserveWhitespace || s.textSpilled || nonWS
	if keep {
		if err := s.canonOpenParent(); err != nil {
			return err
		}
		if err := s.escTo(s.textBuf, false); err != nil {
			return err
		}
		if s.tree.on {
			s.tree.text(string(s.textBuf)) // dtdvet:allow noalloc -- tree sink only; streaming consumers leave it off
		}
		s.queue(Event{Kind: TextEvent, NonWS: nonWS})
	}
	s.textBuf = s.textBuf[:0]
	s.runActive, s.textNonWS, s.textSpilled = false, false, false
	return nil
}

// allSpaceBytes reports whether b trims to nothing under strings.TrimSpace
// — every rune satisfies unicode.IsSpace (invalid UTF-8 does not).
func allSpaceBytes(b []byte) bool {
	for i := 0; i < len(b); {
		if c := b[i]; c < utf8.RuneSelf {
			switch c {
			case ' ', '\t', '\n', '\v', '\f', '\r':
				i++
				continue
			}
			return false
		}
		r, size := utf8.DecodeRune(b[i:])
		if !unicode.IsSpace(r) {
			return false
		}
		i += size
	}
	return true
}

// completeRuneBoundary returns the longest prefix length of b that does
// not end in a truncated UTF-8 sequence.
func completeRuneBoundary(b []byte) int {
	n := len(b)
	if n == 0 || b[n-1] < utf8.RuneSelf {
		return n
	}
	i := n - 1
	for i > 0 && n-i < utf8.UTFMax && !utf8.RuneStart(b[i]) {
		i--
	}
	if !utf8.RuneStart(b[i]) {
		return n // malformed either way; treat as complete
	}
	if utf8.FullRune(b[i:]) {
		return n
	}
	return i
}

// ---- entity expansion ----

// appendRef expands one reference (the bytes between '&' and ';') at the
// given nesting depth. A declared entity's replacement text is charged to
// the byte budget before it is expanded, so nested entities fail with
// *SizeError as soon as their output would pass MaxBytes.
// dtdvet:noalloc
func (s *Streamer) appendRef(dst []byte, ref []byte, depth int) ([]byte, error) {
	if len(ref) > 0 && ref[0] == '#' {
		return s.appendCharRef(dst, ref)
	}
	val, ok := s.entities[string(ref)] // dtdvet:allow noalloc -- map-index string(b) is the compiler's no-copy special case
	if !ok {
		return dst, s.errf("reference to undeclared entity %q", string(ref)) // dtdvet:allow noalloc -- cold error path, the parse is over
	}
	if predefinedEntities[string(ref)] { // dtdvet:allow noalloc -- map-index string(b) is the compiler's no-copy special case
		// Predefined entities expand to literal characters that are not
		// rescanned.
		return append(dst, val...), nil
	}
	if err := s.chargeExpansion(len(val)); err != nil {
		return dst, err
	}
	return s.expandString(dst, val, depth+1)
}

// expandString expands declared-entity replacement text, which may itself
// contain references.
func (s *Streamer) expandString(dst []byte, v string, depth int) ([]byte, error) {
	if !strings.ContainsRune(v, '&') {
		return append(dst, v...), nil
	}
	if depth > maxEntityDepth {
		return dst, s.errf("entity expansion too deep (possible recursion)")
	}
	for i := 0; i < len(v); {
		c := v[i]
		if c != '&' {
			dst = append(dst, c)
			i++
			continue
		}
		end := strings.IndexByte(v[i:], ';')
		if end < 0 {
			return dst, s.errf("unterminated entity reference")
		}
		ref := v[i+1 : i+end]
		i += end + 1
		var err error
		if dst, err = s.appendRef(dst, []byte(ref), depth); err != nil {
			return dst, err
		}
	}
	return dst, nil
}

// expandBytes expands a raw attribute value, appending into dst.
func (s *Streamer) expandBytes(dst, v []byte) ([]byte, error) {
	for i := 0; i < len(v); {
		c := v[i]
		if c != '&' {
			dst = append(dst, c)
			i++
			continue
		}
		end := -1
		for j := i + 1; j < len(v); j++ {
			if v[j] == ';' {
				end = j
				break
			}
		}
		if end < 0 {
			return dst, s.errf("unterminated entity reference")
		}
		ref := v[i+1 : end]
		i = end + 1
		var err error
		if dst, err = s.appendRef(dst, ref, 0); err != nil {
			return dst, err
		}
	}
	return dst, nil
}

// appendCharRef appends the rune of a character reference ("#..." between
// '&' and ';'), decimal or hexadecimal, failing on anything that is not a
// valid rune.
// dtdvet:noalloc
func (s *Streamer) appendCharRef(dst []byte, ref []byte) ([]byte, error) {
	body := ref[1:]
	base := uint64(10)
	if len(body) > 0 && (body[0] == 'x' || body[0] == 'X') {
		body = body[1:]
		base = 16
	}
	if len(body) == 0 {
		return dst, s.errf("invalid character reference &%s;", string(ref)) // dtdvet:allow noalloc -- cold error path, the parse is over
	}
	var n uint64
	for _, c := range body {
		var d uint64
		switch {
		case c >= '0' && c <= '9':
			d = uint64(c - '0')
		case base == 16 && c >= 'a' && c <= 'f':
			d = uint64(c-'a') + 10
		case base == 16 && c >= 'A' && c <= 'F':
			d = uint64(c-'A') + 10
		default:
			return dst, s.errf("invalid character reference &%s;", string(ref)) // dtdvet:allow noalloc -- cold error path, the parse is over
		}
		n = n*base + d
		if n > 1<<32 {
			return dst, s.errf("invalid character reference &%s;", string(ref)) // dtdvet:allow noalloc -- cold error path, the parse is over
		}
	}
	if n > (1<<32)-1 {
		return dst, s.errf("invalid character reference &%s;", string(ref)) // dtdvet:allow noalloc -- cold error path, the parse is over
	}
	r := rune(uint32(n))
	if !utf8.ValidRune(r) {
		return dst, s.errf("character reference &%s; is not a valid rune", string(ref)) // dtdvet:allow noalloc -- cold error path, the parse is over
	}
	return utf8.AppendRune(dst, r), nil
}
