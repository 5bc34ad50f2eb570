package dtd

import (
	"fmt"
	"io"
	"os"
	"strings"
)

// ParseError is a DTD syntax error with its position in the input.
type ParseError struct {
	Line   int
	Column int
	Msg    string
}

func (e *ParseError) Error() string {
	return fmt.Sprintf("dtd: %d:%d: %s", e.Line, e.Column, e.Msg)
}

// Parse reads a sequence of markup declarations (a DTD file or the internal
// subset of a DOCTYPE) and returns the resulting DTD. Parameter entities
// declared in the input are substituted into subsequent declarations.
func Parse(r io.Reader) (*DTD, error) {
	data, err := io.ReadAll(r)
	if err != nil {
		return nil, fmt.Errorf("dtd: reading input: %w", err)
	}
	return ParseString(string(data))
}

// ParseFile parses the DTD stored at path.
func ParseFile(path string) (*DTD, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	return ParseString(string(data))
}

// ParseString parses DTD declarations held in a string.
func ParseString(src string) (*DTD, error) {
	p := &dtdParser{src: src, line: 1, col: 1, paramEntities: make(map[string]string)}
	return p.parse()
}

// MustParse is ParseString for tests and examples with known-good input; it
// panics on error.
func MustParse(src string) *DTD {
	d, err := ParseString(src)
	if err != nil {
		panic(err)
	}
	return d
}

// ParseContentModel parses a single content-model expression such as
// "(b, (c | d)*, e?)" or "EMPTY".
func ParseContentModel(src string) (*Content, error) {
	p := &dtdParser{src: src, line: 1, col: 1, paramEntities: make(map[string]string)}
	p.skipSpace()
	m, err := p.parseContentSpec()
	if err != nil {
		return nil, err
	}
	p.skipSpace()
	if !p.eof() {
		return nil, p.errf("unexpected trailing input %q", p.rest())
	}
	return m, nil
}

type dtdParser struct {
	src           string
	pos           int
	line          int
	col           int
	paramEntities map[string]string
	// open lists the parameter entities whose spliced replacement text
	// the parser has not yet passed, outermost first, each with the
	// offset in src where its text ends.
	open []openEntity
}

type openEntity struct {
	name string
	end  int
}

func (p *dtdParser) errf(format string, args ...any) error {
	return &ParseError{Line: p.line, Column: p.col, Msg: fmt.Sprintf(format, args...)}
}

func (p *dtdParser) eof() bool    { return p.pos >= len(p.src) }
func (p *dtdParser) rest() string { return p.src[p.pos:] }

func (p *dtdParser) peek() byte {
	if p.eof() {
		return 0
	}
	return p.src[p.pos]
}

func (p *dtdParser) advance() byte {
	c := p.src[p.pos]
	p.pos++
	if c == '\n' {
		p.line++
		p.col = 1
	} else {
		p.col++
	}
	return c
}

func (p *dtdParser) hasPrefix(s string) bool { return strings.HasPrefix(p.rest(), s) }

func (p *dtdParser) expect(s string) error {
	if !p.hasPrefix(s) {
		return p.errf("expected %q", s)
	}
	for range s {
		p.advance()
	}
	return nil
}

func (p *dtdParser) skipSpace() {
	for !p.eof() {
		switch p.peek() {
		case ' ', '\t', '\r', '\n':
			p.advance()
		default:
			return
		}
	}
}

// skipSpaceAndPERefs skips whitespace and expands parameter-entity
// references in declaration positions by splicing their replacement text
// into the input.
func (p *dtdParser) skipSpaceAndPERefs() error {
	for {
		p.skipSpace()
		if p.eof() || p.peek() != '%' {
			return nil
		}
		if err := p.expandPERef(); err != nil {
			return err
		}
	}
}

func (p *dtdParser) expandPERef() error {
	if err := p.expect("%"); err != nil {
		return err
	}
	name, err := p.readName()
	if err != nil {
		return p.errf("malformed parameter-entity reference")
	}
	if err := p.expect(";"); err != nil {
		return err
	}
	val, ok := p.paramEntities[name]
	if !ok {
		return p.errf("reference to undeclared parameter entity %%%s;", name)
	}
	// A reference inside the entity's own replacement text would splice
	// forever (XML 1.0 §4.1 forbids it).
	for len(p.open) > 0 && p.pos >= p.open[len(p.open)-1].end {
		p.open = p.open[:len(p.open)-1]
	}
	for _, o := range p.open {
		if o.name == name {
			return p.errf("recursive reference to parameter entity %%%s;", name)
		}
	}
	// Splice the replacement text (padded with spaces, per XML 1.0 §4.4.8)
	// into the remaining input. Every open entity's text encloses it.
	text := " " + val + " "
	p.src = p.src[:p.pos] + text + p.src[p.pos:]
	for i := range p.open {
		p.open[i].end += len(text)
	}
	p.open = append(p.open, openEntity{name: name, end: p.pos + len(text)})
	return nil
}

func isNameStart(c byte) bool {
	return c == '_' || c == ':' || (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || c >= 0x80
}

func isNameChar(c byte) bool {
	return isNameStart(c) || c == '-' || c == '.' || (c >= '0' && c <= '9')
}

func (p *dtdParser) readName() (string, error) {
	if p.eof() || !isNameStart(p.peek()) {
		return "", p.errf("expected a name")
	}
	start := p.pos
	for !p.eof() && isNameChar(p.peek()) {
		p.advance()
	}
	return p.src[start:p.pos], nil
}

func (p *dtdParser) readQuoted() (string, error) {
	if p.eof() || (p.peek() != '"' && p.peek() != '\'') {
		return "", p.errf("expected a quoted literal")
	}
	quote := p.advance()
	start := p.pos
	for !p.eof() && p.peek() != quote {
		p.advance()
	}
	if p.eof() {
		return "", p.errf("unterminated literal")
	}
	s := p.src[start:p.pos]
	p.advance()
	return s, nil
}

func (p *dtdParser) parse() (*DTD, error) {
	d := NewDTD("")
	for {
		if err := p.skipSpaceAndPERefs(); err != nil {
			return nil, err
		}
		if p.eof() {
			return d, nil
		}
		switch {
		case p.hasPrefix("<!--"):
			if err := p.skipComment(); err != nil {
				return nil, err
			}
		case p.hasPrefix("<?"):
			if err := p.skipPI(); err != nil {
				return nil, err
			}
		case p.hasPrefix("<!ELEMENT"):
			if err := p.parseElementDecl(d); err != nil {
				return nil, err
			}
		case p.hasPrefix("<!ATTLIST"):
			if err := p.parseAttlistDecl(d); err != nil {
				return nil, err
			}
		case p.hasPrefix("<!ENTITY"):
			if err := p.parseEntityDecl(); err != nil {
				return nil, err
			}
		case p.hasPrefix("<!NOTATION"):
			if err := p.skipDecl(); err != nil {
				return nil, err
			}
		default:
			return nil, p.errf("unexpected input %q", truncate(p.rest(), 20))
		}
	}
}

func truncate(s string, n int) string {
	if len(s) <= n {
		return s
	}
	return s[:n] + "..."
}

func (p *dtdParser) skipComment() error {
	if err := p.expect("<!--"); err != nil {
		return err
	}
	for !p.eof() {
		if p.hasPrefix("-->") {
			p.advance()
			p.advance()
			p.advance()
			return nil
		}
		p.advance()
	}
	return p.errf("unterminated comment")
}

func (p *dtdParser) skipPI() error {
	if err := p.expect("<?"); err != nil {
		return err
	}
	for !p.eof() {
		if p.hasPrefix("?>") {
			p.advance()
			p.advance()
			return nil
		}
		p.advance()
	}
	return p.errf("unterminated processing instruction")
}

// skipDecl consumes a declaration up to its closing '>', honoring quotes.
func (p *dtdParser) skipDecl() error {
	for !p.eof() {
		c := p.advance()
		if c == '"' || c == '\'' {
			for !p.eof() && p.peek() != c {
				p.advance()
			}
			if p.eof() {
				return p.errf("unterminated literal in declaration")
			}
			p.advance()
			continue
		}
		if c == '>' {
			return nil
		}
	}
	return p.errf("unterminated declaration")
}

func (p *dtdParser) parseElementDecl(d *DTD) error {
	if err := p.expect("<!ELEMENT"); err != nil {
		return err
	}
	if err := p.skipSpaceAndPERefs(); err != nil {
		return err
	}
	name, err := p.readName()
	if err != nil {
		return err
	}
	if err := p.skipSpaceAndPERefs(); err != nil {
		return err
	}
	model, err := p.parseContentSpec()
	if err != nil {
		return err
	}
	if err := p.skipSpaceAndPERefs(); err != nil {
		return err
	}
	if p.eof() || p.peek() != '>' {
		return p.errf("expected '>' to close <!ELEMENT %s>", name)
	}
	p.advance()
	if _, dup := d.Elements[name]; dup {
		return p.errf("duplicate declaration of element %q", name)
	}
	d.Declare(name, model)
	return nil
}

// parseContentSpec parses EMPTY | ANY | Mixed | children.
func (p *dtdParser) parseContentSpec() (*Content, error) {
	switch {
	case p.hasPrefix("EMPTY"):
		if err := p.expect("EMPTY"); err != nil {
			return nil, err
		}
		return NewEmpty(), nil
	case p.hasPrefix("ANY"):
		if err := p.expect("ANY"); err != nil {
			return nil, err
		}
		return NewAny(), nil
	case p.peek() == '(':
		return p.parseGroupOrMixed()
	default:
		return nil, p.errf("expected EMPTY, ANY, or '('")
	}
}

// parseGroupOrMixed parses either a mixed-content declaration
// (#PCDATA | a | b)* or a children group.
func (p *dtdParser) parseGroupOrMixed() (*Content, error) {
	if err := p.expect("("); err != nil {
		return nil, err
	}
	if err := p.skipSpaceAndPERefs(); err != nil {
		return nil, err
	}
	if p.hasPrefix("#PCDATA") {
		return p.parseMixedTail()
	}
	return p.parseGroupTail()
}

func (p *dtdParser) parseMixedTail() (*Content, error) {
	if err := p.expect("#PCDATA"); err != nil {
		return nil, err
	}
	var names []string
	for {
		if err := p.skipSpaceAndPERefs(); err != nil {
			return nil, err
		}
		if p.eof() {
			return nil, p.errf("unterminated mixed-content group")
		}
		if p.peek() == ')' {
			p.advance()
			if len(names) == 0 {
				// (#PCDATA) — trailing '*' optional.
				if !p.eof() && p.peek() == '*' {
					p.advance()
				}
				return NewPCDATA(), nil
			}
			if p.eof() || p.peek() != '*' {
				return nil, p.errf("mixed content with elements must end in ')*'")
			}
			p.advance()
			kids := []*Content{NewPCDATA()}
			for _, n := range names {
				kids = append(kids, NewName(n))
			}
			return NewStar(NewChoice(kids...)), nil
		}
		if p.peek() != '|' {
			return nil, p.errf("expected '|' or ')' in mixed-content group")
		}
		p.advance()
		if err := p.skipSpaceAndPERefs(); err != nil {
			return nil, err
		}
		n, err := p.readName()
		if err != nil {
			return nil, err
		}
		names = append(names, n)
	}
}

// parseGroupTail parses the remainder of a children group after '(' and
// leading space have been consumed, then an optional occurrence operator.
func (p *dtdParser) parseGroupTail() (*Content, error) {
	var items []*Content
	var sep byte // ',' or '|', fixed by the first separator seen
	first, err := p.parseCP()
	if err != nil {
		return nil, err
	}
	items = append(items, first)
	for {
		if err := p.skipSpaceAndPERefs(); err != nil {
			return nil, err
		}
		if p.eof() {
			return nil, p.errf("unterminated group")
		}
		c := p.peek()
		if c == ')' {
			p.advance()
			break
		}
		if c != ',' && c != '|' {
			return nil, p.errf("expected ',', '|' or ')' in group")
		}
		if sep == 0 {
			sep = c
		} else if c != sep {
			return nil, p.errf("cannot mix ',' and '|' in one group")
		}
		p.advance()
		if err := p.skipSpaceAndPERefs(); err != nil {
			return nil, err
		}
		item, err := p.parseCP()
		if err != nil {
			return nil, err
		}
		items = append(items, item)
	}
	var group *Content
	switch {
	case len(items) == 1:
		group = items[0]
	case sep == '|':
		group = NewChoice(items...)
	default:
		group = NewSeq(items...)
	}
	return p.applyOccurrence(group), nil
}

// parseCP parses one content particle: Name, or a nested group, followed by
// an optional occurrence operator.
func (p *dtdParser) parseCP() (*Content, error) {
	if p.eof() {
		return nil, p.errf("unexpected end of content model")
	}
	if p.peek() == '(' {
		if err := p.expect("("); err != nil {
			return nil, err
		}
		if err := p.skipSpaceAndPERefs(); err != nil {
			return nil, err
		}
		return p.parseGroupTail()
	}
	name, err := p.readName()
	if err != nil {
		return nil, err
	}
	return p.applyOccurrence(NewName(name)), nil
}

func (p *dtdParser) applyOccurrence(c *Content) *Content {
	if p.eof() {
		return c
	}
	switch p.peek() {
	case '?':
		p.advance()
		return NewOpt(c)
	case '*':
		p.advance()
		return NewStar(c)
	case '+':
		p.advance()
		return NewPlus(c)
	}
	return c
}

func (p *dtdParser) parseAttlistDecl(d *DTD) error {
	if err := p.expect("<!ATTLIST"); err != nil {
		return err
	}
	if err := p.skipSpaceAndPERefs(); err != nil {
		return err
	}
	elem, err := p.readName()
	if err != nil {
		return err
	}
	for {
		if err := p.skipSpaceAndPERefs(); err != nil {
			return err
		}
		if p.eof() {
			return p.errf("unterminated <!ATTLIST %s>", elem)
		}
		if p.peek() == '>' {
			p.advance()
			return nil
		}
		attName, err := p.readName()
		if err != nil {
			return err
		}
		if err := p.skipSpaceAndPERefs(); err != nil {
			return err
		}
		attType, err := p.readAttType()
		if err != nil {
			return err
		}
		if err := p.skipSpaceAndPERefs(); err != nil {
			return err
		}
		def := AttDef{Name: attName, Type: attType}
		switch {
		case p.hasPrefix("#REQUIRED"):
			_ = p.expect("#REQUIRED")
			def.Mode = "#REQUIRED"
		case p.hasPrefix("#IMPLIED"):
			_ = p.expect("#IMPLIED")
			def.Mode = "#IMPLIED"
		case p.hasPrefix("#FIXED"):
			_ = p.expect("#FIXED")
			def.Mode = "#FIXED"
			if err := p.skipSpaceAndPERefs(); err != nil {
				return err
			}
			if def.Default, err = p.readQuoted(); err != nil {
				return err
			}
		default:
			if def.Default, err = p.readQuoted(); err != nil {
				return err
			}
		}
		if d.Attlists == nil {
			d.Attlists = make(map[string][]AttDef)
		}
		d.Attlists[elem] = append(d.Attlists[elem], def)
	}
}

// readAttType reads an attribute type: a keyword (CDATA, ID, IDREF, ...),
// NOTATION with its group, or an enumeration group.
func (p *dtdParser) readAttType() (string, error) {
	if p.peek() == '(' {
		return p.readEnumGroup()
	}
	name, err := p.readName()
	if err != nil {
		return "", err
	}
	if name == "NOTATION" {
		if err := p.skipSpaceAndPERefs(); err != nil {
			return "", err
		}
		group, err := p.readEnumGroup()
		if err != nil {
			return "", err
		}
		return "NOTATION " + group, nil
	}
	return name, nil
}

func (p *dtdParser) readEnumGroup() (string, error) {
	if err := p.expect("("); err != nil {
		return "", err
	}
	start := p.pos
	for !p.eof() && p.peek() != ')' {
		p.advance()
	}
	if p.eof() {
		return "", p.errf("unterminated enumeration group")
	}
	body := p.src[start:p.pos]
	p.advance()
	return "(" + strings.TrimSpace(body) + ")", nil
}

func (p *dtdParser) parseEntityDecl() error {
	if err := p.expect("<!ENTITY"); err != nil {
		return err
	}
	p.skipSpace()
	isParam := false
	if p.peek() == '%' {
		isParam = true
		p.advance()
		p.skipSpace()
	}
	name, err := p.readName()
	if err != nil {
		return err
	}
	p.skipSpace()
	if p.hasPrefix("SYSTEM") || p.hasPrefix("PUBLIC") {
		// External entity: record nothing (offline), skip to '>'.
		return p.skipDecl()
	}
	val, err := p.readQuoted()
	if err != nil {
		return err
	}
	p.skipSpace()
	if p.eof() || p.peek() != '>' {
		return p.errf("expected '>' to close <!ENTITY %s>", name)
	}
	p.advance()
	if isParam {
		if _, dup := p.paramEntities[name]; !dup {
			// First declaration binds, per XML 1.0.
			p.paramEntities[name] = val
		}
	}
	// General entities are handled by the document parser; nothing to do.
	return nil
}
