package xmltree

// This file freezes the recursive-descent tree parser that built Document
// trees before Parse became a fold over the pull parser's events. It exists
// only as the reference implementation for the oracle tests and
// FuzzParseMatchesLegacy: Parse must accept and reject the same inputs and
// build equal trees, doctypes and canonical bytes. Keep it as it stood; do
// not "improve" it. The only edit is the entry point's name,
// legacyParseBytes, since parseBytes now drives the Streamer; parseCharRef,
// which only this parser calls, moved here with it.

import (
	"fmt"
	"strconv"
	"strings"
	"unicode/utf8"
)

type parser struct {
	src      []byte
	pos      int
	line     int
	col      int
	opts     Options
	entities map[string]string // general entities from the internal subset
	maxDepth int
}

func legacyParseBytes(src []byte, opts Options) (*Document, error) {
	p := &parser{
		src:      src,
		line:     1,
		col:      1,
		opts:     opts,
		maxDepth: opts.MaxDepth,
		entities: map[string]string{
			"lt":   "<",
			"gt":   ">",
			"amp":  "&",
			"apos": "'",
			"quot": `"`,
		},
	}
	if p.maxDepth <= 0 {
		p.maxDepth = defaultMaxDepth
	}
	return p.parseDocument()
}

func (p *parser) errf(format string, args ...any) error {
	return &ParseError{Line: p.line, Column: p.col, Msg: fmt.Sprintf(format, args...)}
}

func (p *parser) eof() bool { return p.pos >= len(p.src) }

func (p *parser) peek() byte {
	if p.eof() {
		return 0
	}
	return p.src[p.pos]
}

func (p *parser) advance() byte {
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

func (p *parser) hasPrefix(s string) bool {
	// Compare in place: converting the whole remaining input to a string
	// would copy it, making text-heavy parses quadratic.
	return len(p.src)-p.pos >= len(s) && string(p.src[p.pos:p.pos+len(s)]) == s
}

func (p *parser) expect(s string) error {
	if !p.hasPrefix(s) {
		return p.errf("expected %q", s)
	}
	for range s {
		p.advance()
	}
	return nil
}

func (p *parser) skipSpace() {
	for !p.eof() {
		switch p.peek() {
		case ' ', '\t', '\r', '\n':
			p.advance()
		default:
			return
		}
	}
}

func (p *parser) readName() (string, error) {
	if p.eof() || !isNameStart(p.peek()) {
		return "", p.errf("expected a name")
	}
	start := p.pos
	for !p.eof() && isNameChar(p.peek()) {
		p.advance()
	}
	return string(p.src[start:p.pos]), nil
}

func (p *parser) parseDocument() (*Document, error) {
	doc := &Document{}
	// Optional byte-order mark.
	if p.hasPrefix("\xef\xbb\xbf") {
		p.pos += 3
	}
	// Prolog: XML declaration, comments, PIs, doctype.
	for {
		p.skipSpace()
		if p.eof() {
			return nil, p.errf("no root element")
		}
		switch {
		case p.hasPrefix("<?"):
			if err := p.skipPI(); err != nil {
				return nil, err
			}
		case p.hasPrefix("<!--"):
			if err := p.skipComment(); err != nil {
				return nil, err
			}
		case p.hasPrefix("<!DOCTYPE"):
			if doc.Doctype != nil {
				return nil, p.errf("multiple DOCTYPE declarations")
			}
			dt, err := p.parseDoctype()
			if err != nil {
				return nil, err
			}
			doc.Doctype = dt
		case p.peek() == '<':
			root, err := p.parseElement(0)
			if err != nil {
				return nil, err
			}
			doc.Root = root
			// Trailing misc: comments, PIs, whitespace only.
			for {
				p.skipSpace()
				if p.eof() {
					return doc, nil
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
				default:
					return nil, p.errf("content after root element")
				}
			}
		default:
			return nil, p.errf("unexpected character %q before root element", p.peek())
		}
	}
}

func (p *parser) skipPI() error {
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

func (p *parser) skipComment() error {
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
		if p.hasPrefix("--") && !p.hasPrefix("-->") {
			return p.errf(`"--" is not allowed inside comments`)
		}
		p.advance()
	}
	return p.errf("unterminated comment")
}

func (p *parser) parseDoctype() (*Doctype, error) {
	if err := p.expect("<!DOCTYPE"); err != nil {
		return nil, err
	}
	p.skipSpace()
	name, err := p.readName()
	if err != nil {
		return nil, err
	}
	dt := &Doctype{Name: name}
	p.skipSpace()
	if p.hasPrefix("PUBLIC") {
		if err := p.expect("PUBLIC"); err != nil {
			return nil, err
		}
		p.skipSpace()
		if dt.PublicID, err = p.readQuoted(); err != nil {
			return nil, err
		}
		p.skipSpace()
		if dt.SystemID, err = p.readQuoted(); err != nil {
			return nil, err
		}
	} else if p.hasPrefix("SYSTEM") {
		if err := p.expect("SYSTEM"); err != nil {
			return nil, err
		}
		p.skipSpace()
		if dt.SystemID, err = p.readQuoted(); err != nil {
			return nil, err
		}
	}
	p.skipSpace()
	if p.peek() == '[' {
		p.advance()
		start := p.pos
		depth := 0
		for {
			if p.eof() {
				return nil, p.errf("unterminated internal DTD subset")
			}
			c := p.peek()
			switch {
			case c == ']' && depth == 0:
				dt.InternalSubset = string(p.src[start:p.pos])
				p.advance()
			case c == '<':
				// Declarations and comments may contain ']' inside quotes;
				// skip markup atomically.
				if err := p.skipSubsetMarkup(); err != nil {
					return nil, err
				}
				continue
			default:
				p.advance()
				continue
			}
			break
		}
		p.registerSubsetEntities(dt.InternalSubset)
		p.skipSpace()
	}
	if p.eof() || p.peek() != '>' {
		return nil, p.errf("expected '>' to close DOCTYPE")
	}
	p.advance()
	return dt, nil
}

// skipSubsetMarkup consumes one markup declaration, PI, or comment inside
// the internal subset, honoring quoted strings.
func (p *parser) skipSubsetMarkup() error {
	if p.hasPrefix("<!--") {
		return p.skipComment()
	}
	if p.hasPrefix("<?") {
		return p.skipPI()
	}
	// <!ELEMENT ...>, <!ATTLIST ...>, <!ENTITY ...>, <!NOTATION ...>
	for !p.eof() {
		c := p.advance()
		if c == '"' || c == '\'' {
			quote := c
			for !p.eof() && p.peek() != quote {
				p.advance()
			}
			if p.eof() {
				return p.errf("unterminated literal in DTD internal subset")
			}
			p.advance()
			continue
		}
		if c == '>' {
			return nil
		}
	}
	return p.errf("unterminated declaration in DTD internal subset")
}

// registerSubsetEntities extracts general-entity declarations from the
// internal subset so that references in document content can be expanded.
// Parameter entities are left to the dtd package.
func (p *parser) registerSubsetEntities(subset string) {
	registerSubsetEntities(subset, p.entities)
}

func (p *parser) readQuoted() (string, error) {
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
	s := string(p.src[start:p.pos])
	p.advance()
	return s, nil
}

func (p *parser) parseElement(depth int) (*Node, error) {
	if depth > p.maxDepth {
		return nil, p.errf("element nesting exceeds %d", p.maxDepth)
	}
	if err := p.expect("<"); err != nil {
		return nil, err
	}
	name, err := p.readName()
	if err != nil {
		return nil, err
	}
	node := &Node{Kind: Element, Name: name}
	seen := make(map[string]bool)
	for {
		p.skipSpace()
		if p.eof() {
			return nil, p.errf("unterminated start tag <%s", name)
		}
		switch {
		case p.hasPrefix("/>"):
			p.advance()
			p.advance()
			return node, nil
		case p.peek() == '>':
			p.advance()
			if err := p.parseContent(node, depth); err != nil {
				return nil, err
			}
			return node, nil
		default:
			attrName, err := p.readName()
			if err != nil {
				return nil, p.errf("malformed start tag <%s", name)
			}
			if seen[attrName] {
				return nil, p.errf("duplicate attribute %q on <%s>", attrName, name)
			}
			seen[attrName] = true
			p.skipSpace()
			if p.eof() || p.peek() != '=' {
				return nil, p.errf("attribute %q missing '='", attrName)
			}
			p.advance()
			p.skipSpace()
			raw, err := p.readQuoted()
			if err != nil {
				return nil, err
			}
			val, err := p.expandEntities(raw)
			if err != nil {
				return nil, err
			}
			node.Attrs = append(node.Attrs, Attr{Name: attrName, Value: val})
		}
	}
}

func (p *parser) parseContent(parent *Node, depth int) error {
	var text strings.Builder
	flush := func() error {
		if text.Len() == 0 {
			return nil
		}
		data, err := p.expandEntities(text.String())
		if err != nil {
			return err
		}
		text.Reset()
		if !p.opts.PreserveWhitespace && strings.TrimSpace(data) == "" {
			return nil
		}
		parent.Children = append(parent.Children, NewText(data))
		return nil
	}
	for {
		if p.eof() {
			return p.errf("missing end tag </%s>", parent.Name)
		}
		switch {
		case p.hasPrefix("</"):
			if err := flush(); err != nil {
				return err
			}
			p.advance()
			p.advance()
			name, err := p.readName()
			if err != nil {
				return err
			}
			if name != parent.Name {
				return p.errf("end tag </%s> does not match <%s>", name, parent.Name)
			}
			p.skipSpace()
			if p.eof() || p.peek() != '>' {
				return p.errf("malformed end tag </%s", name)
			}
			p.advance()
			return nil
		case p.hasPrefix("<!--"):
			if err := flush(); err != nil {
				return err
			}
			if err := p.skipComment(); err != nil {
				return err
			}
		case p.hasPrefix("<![CDATA["):
			if err := flush(); err != nil {
				return err
			}
			if err := p.expect("<![CDATA["); err != nil {
				return err
			}
			start := p.pos
			for !p.eof() && !p.hasPrefix("]]>") {
				p.advance()
			}
			if p.eof() {
				return p.errf("unterminated CDATA section")
			}
			data := string(p.src[start:p.pos])
			p.advance()
			p.advance()
			p.advance()
			if p.opts.PreserveWhitespace || strings.TrimSpace(data) != "" {
				parent.Children = append(parent.Children, NewText(data))
			}
		case p.hasPrefix("<?"):
			if err := flush(); err != nil {
				return err
			}
			if err := p.skipPI(); err != nil {
				return err
			}
		case p.peek() == '<':
			if err := flush(); err != nil {
				return err
			}
			child, err := p.parseElement(depth + 1)
			if err != nil {
				return err
			}
			parent.Children = append(parent.Children, child)
		default:
			text.WriteByte(p.advance())
		}
	}
}

// expandEntities resolves character and entity references in raw character
// data or attribute values.
func (p *parser) expandEntities(s string) (string, error) {
	return p.expandEntitiesDepth(s, 0)
}

func (p *parser) expandEntitiesDepth(s string, depth int) (string, error) {
	if !strings.ContainsRune(s, '&') {
		return s, nil
	}
	if depth > maxEntityDepth {
		return "", p.errf("entity expansion too deep (possible recursion)")
	}
	var b strings.Builder
	for i := 0; i < len(s); {
		c := s[i]
		if c != '&' {
			b.WriteByte(c)
			i++
			continue
		}
		end := strings.IndexByte(s[i:], ';')
		if end < 0 {
			return "", p.errf("unterminated entity reference")
		}
		ref := s[i+1 : i+end]
		i += end + 1
		if strings.HasPrefix(ref, "#") {
			r, err := parseCharRef(ref)
			if err != nil {
				return "", p.errf("%v", err)
			}
			b.WriteRune(r)
			continue
		}
		val, ok := p.entities[ref]
		if !ok {
			return "", p.errf("reference to undeclared entity %q", ref)
		}
		if predefinedEntities[ref] {
			// Predefined entities expand to literal characters that are
			// not rescanned (that is the point of &amp; and friends).
			b.WriteString(val)
			continue
		}
		// Declared entity replacement text may itself contain references.
		expanded, err := p.expandEntitiesDepth(val, depth+1)
		if err != nil {
			return "", err
		}
		b.WriteString(expanded)
	}
	return b.String(), nil
}

func parseCharRef(ref string) (rune, error) {
	body := ref[1:]
	base := 10
	if strings.HasPrefix(body, "x") || strings.HasPrefix(body, "X") {
		body = body[1:]
		base = 16
	}
	n, err := strconv.ParseUint(body, base, 32)
	if err != nil {
		return 0, fmt.Errorf("invalid character reference &%s;", ref)
	}
	r := rune(n)
	if !utf8.ValidRune(r) {
		return 0, fmt.Errorf("character reference &%s; is not a valid rune", ref)
	}
	return r, nil
}
