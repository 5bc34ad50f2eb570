// Package dtd implements Document Type Definitions: a content-model AST
// matching the paper's DTD tree representation (labels from EN ∪ ET ∪ OP
// with ET = {#PCDATA, ANY} and OP = {AND, OR, ?, *, +}), a parser for DTD
// declaration syntax including parameter entities, a serializer, and the
// rewriting rules used to simplify evolved DTDs into equivalent, more
// concise ones.
package dtd

import (
	"fmt"
	"sort"
	"strings"
)

// Kind identifies the variant of a content-model node.
type Kind int

const (
	// Name is a reference to a child element, e.g. b in (b, c).
	Name Kind = iota
	// PCDATA is the #PCDATA basic type.
	PCDATA
	// Any is the ANY content specification.
	Any
	// Empty is the EMPTY content specification.
	Empty
	// Seq is the paper's AND operator: a sequence (a, b, c).
	Seq
	// Choice is the paper's OR operator: an alternative (a | b | c).
	Choice
	// Opt is the ? operator: optional content.
	Opt
	// Star is the * operator: zero or more repetitions.
	Star
	// Plus is the + operator: one or more repetitions.
	Plus
)

// String returns the paper's label for the node kind.
func (k Kind) String() string {
	switch k {
	case Name:
		return "name"
	case PCDATA:
		return "#PCDATA"
	case Any:
		return "ANY"
	case Empty:
		return "EMPTY"
	case Seq:
		return "AND"
	case Choice:
		return "OR"
	case Opt:
		return "?"
	case Star:
		return "*"
	case Plus:
		return "+"
	default:
		return fmt.Sprintf("Kind(%d)", int(k))
	}
}

// Content is a node of a content-model tree.
//
// Name nodes carry the referenced element name and have no children. Seq and
// Choice have one or more children. Opt, Star and Plus have exactly one
// child. PCDATA, Any and Empty are leaves.
type Content struct {
	Kind     Kind
	Name     string
	Children []*Content
}

// Convenience constructors. They do not simplify; see Rewrite.

// NewName returns a Name node for the element called name.
func NewName(name string) *Content { return &Content{Kind: Name, Name: name} }

// NewSeq returns an AND node over the given children.
func NewSeq(children ...*Content) *Content { return &Content{Kind: Seq, Children: children} }

// NewChoice returns an OR node over the given children.
func NewChoice(children ...*Content) *Content { return &Content{Kind: Choice, Children: children} }

// NewOpt wraps c in the ? operator.
func NewOpt(c *Content) *Content { return &Content{Kind: Opt, Children: []*Content{c}} }

// NewStar wraps c in the * operator.
func NewStar(c *Content) *Content { return &Content{Kind: Star, Children: []*Content{c}} }

// NewPlus wraps c in the + operator.
func NewPlus(c *Content) *Content { return &Content{Kind: Plus, Children: []*Content{c}} }

// NewPCDATA returns a #PCDATA leaf.
func NewPCDATA() *Content { return &Content{Kind: PCDATA} }

// NewAny returns an ANY leaf.
func NewAny() *Content { return &Content{Kind: Any} }

// NewEmpty returns an EMPTY leaf.
func NewEmpty() *Content { return &Content{Kind: Empty} }

// AttDef is a single attribute definition from an <!ATTLIST> declaration.
// Attributes play no role in the paper's structural algorithms but are
// parsed and preserved so that round-tripping a DTD does not lose them.
type AttDef struct {
	Name    string // attribute name
	Type    string // CDATA, ID, IDREF, enumeration source text, ...
	Mode    string // #REQUIRED, #IMPLIED, #FIXED, or empty
	Default string // default value, if any
}

// DTD is a parsed document type definition: a set of element declarations.
type DTD struct {
	// Name is the DTD's name. For a DTD extracted from a DOCTYPE it is the
	// declared root element; for standalone files it may be set by the
	// caller. When non-empty it identifies the root element declaration.
	Name string
	// Elements maps element names to their content models.
	Elements map[string]*Content
	// Order preserves element declaration order for serialization.
	Order []string
	// Attlists maps element names to their attribute definitions.
	Attlists map[string][]AttDef
}

// NewDTD returns an empty DTD with the given name.
func NewDTD(name string) *DTD {
	return &DTD{
		Name:     name,
		Elements: make(map[string]*Content),
		Attlists: make(map[string][]AttDef),
	}
}

// Declare adds (or replaces) the declaration of an element. Declaration
// order is preserved for new elements.
func (d *DTD) Declare(name string, model *Content) {
	if _, exists := d.Elements[name]; !exists {
		d.Order = append(d.Order, name)
	}
	d.Elements[name] = model
}

// Root returns the content model of the root element (the element named by
// d.Name, or the first declared element when d.Name is empty) and its name.
func (d *DTD) Root() (string, *Content) {
	if d.Name != "" {
		if m, ok := d.Elements[d.Name]; ok {
			return d.Name, m
		}
	}
	if len(d.Order) > 0 {
		return d.Order[0], d.Elements[d.Order[0]]
	}
	return "", nil
}

// Declared returns the names of d's declarations in a deterministic order:
// d.Order first, skipping undeclared names and repeats, then any
// declaration missing from d.Order, sorted. Walks whose result depends on
// the order they visit declarations in (symbol IDs, required weights) use
// it, so that the result is a function of the DTD and not of map order.
func (d *DTD) Declared() []string {
	out := make([]string, 0, len(d.Elements))
	seen := make(map[string]bool, len(d.Elements))
	for _, name := range d.Order {
		if _, ok := d.Elements[name]; ok && !seen[name] {
			seen[name] = true
			out = append(out, name)
		}
	}
	if len(out) < len(d.Elements) {
		rest := make([]string, 0, len(d.Elements)-len(out))
		for name := range d.Elements {
			if !seen[name] {
				rest = append(rest, name)
			}
		}
		sort.Strings(rest)
		out = append(out, rest...)
	}
	return out
}

// Clone returns a deep copy of the DTD.
func (d *DTD) Clone() *DTD {
	c := NewDTD(d.Name)
	c.Order = append([]string(nil), d.Order...)
	for name, m := range d.Elements {
		c.Elements[name] = m.Clone()
	}
	for name, atts := range d.Attlists {
		c.Attlists[name] = append([]AttDef(nil), atts...)
	}
	return c
}

// Clone returns a deep copy of the content model.
func (c *Content) Clone() *Content {
	if c == nil {
		return nil
	}
	out := &Content{Kind: c.Kind, Name: c.Name}
	for _, ch := range c.Children {
		out.Children = append(out.Children, ch.Clone())
	}
	return out
}

// Equal reports whether two content models are structurally identical.
func (c *Content) Equal(o *Content) bool {
	if c == nil || o == nil {
		return c == o
	}
	if c.Kind != o.Kind || c.Name != o.Name || len(c.Children) != len(o.Children) {
		return false
	}
	for i := range c.Children {
		if !c.Children[i].Equal(o.Children[i]) {
			return false
		}
	}
	return true
}

// Labels returns the paper's αβ applied to a DTD element: the set of tags of
// the direct subelements, independent of the operators used in the
// declaration. For (b, (c | d)*) it returns {b, c, d}, sorted.
func (c *Content) Labels() []string {
	seen := make(map[string]bool)
	var out []string
	var visit func(*Content)
	visit = func(n *Content) {
		if n == nil {
			return
		}
		if n.Kind == Name {
			if !seen[n.Name] {
				seen[n.Name] = true
				out = append(out, n.Name)
			}
			return
		}
		for _, ch := range n.Children {
			visit(ch)
		}
	}
	visit(c)
	sort.Strings(out)
	return out
}

// HasPCDATA reports whether the model contains a #PCDATA leaf.
func (c *Content) HasPCDATA() bool {
	if c == nil {
		return false
	}
	if c.Kind == PCDATA {
		return true
	}
	for _, ch := range c.Children {
		if ch.HasPCDATA() {
			return true
		}
	}
	return false
}

// IsMixed reports whether the model is a mixed-content declaration:
// (#PCDATA | a | b)* or (#PCDATA).
func (c *Content) IsMixed() bool {
	if c == nil {
		return false
	}
	if c.Kind == PCDATA {
		return true
	}
	if c.Kind == Star && len(c.Children) == 1 {
		ch := c.Children[0]
		if ch.Kind == Choice && len(ch.Children) > 0 && ch.Children[0].Kind == PCDATA {
			return true
		}
		if ch.Kind == PCDATA {
			return true
		}
	}
	return false
}

// NodeCount returns the number of nodes in the content-model tree; it is
// the conciseness measure used by the evaluation harness.
func (c *Content) NodeCount() int {
	if c == nil {
		return 0
	}
	n := 1
	for _, ch := range c.Children {
		n += ch.NodeCount()
	}
	return n
}

// Nullable reports whether the content model matches the empty sequence of
// child elements.
func (c *Content) Nullable() bool {
	if c == nil {
		return true
	}
	switch c.Kind {
	case Empty:
		return true
	case Any:
		return true
	case PCDATA:
		return true // character data is not a child *element*
	case Name:
		return false
	case Opt, Star:
		return true
	case Plus:
		return c.Children[0].Nullable()
	case Seq:
		for _, ch := range c.Children {
			if !ch.Nullable() {
				return false
			}
		}
		return true
	case Choice:
		for _, ch := range c.Children {
			if ch.Nullable() {
				return true
			}
		}
		return false
	default:
		return false
	}
}

// String renders the content model in DTD declaration syntax, e.g.
// "(b, (c | d)*, e?)".
func (c *Content) String() string {
	var b strings.Builder
	c.write(&b, true)
	return b.String()
}

func (c *Content) write(b *strings.Builder, top bool) {
	if c == nil {
		b.WriteString("EMPTY")
		return
	}
	switch c.Kind {
	case Empty:
		b.WriteString("EMPTY")
	case Any:
		b.WriteString("ANY")
	case PCDATA:
		if top {
			b.WriteString("(#PCDATA)")
		} else {
			b.WriteString("#PCDATA")
		}
	case Name:
		if top {
			// XML requires parentheses around the content model.
			b.WriteString("(")
			b.WriteString(c.Name)
			b.WriteString(")")
		} else {
			b.WriteString(c.Name)
		}
	case Seq, Choice:
		sep := ", "
		if c.Kind == Choice {
			sep = " | "
		}
		b.WriteString("(")
		for i, ch := range c.Children {
			if i > 0 {
				b.WriteString(sep)
			}
			ch.write(b, false)
		}
		b.WriteString(")")
	case Opt, Star, Plus:
		inner := c.Children[0]
		needParens := inner.Kind == Name || inner.Kind == PCDATA
		if needParens && !top {
			// Name? is legal without parentheses inside a group.
			inner.write(b, false)
		} else if inner.Kind == Seq || inner.Kind == Choice {
			inner.write(b, false)
		} else {
			b.WriteString("(")
			inner.write(b, false)
			b.WriteString(")")
		}
		switch c.Kind {
		case Opt:
			b.WriteString("?")
		case Star:
			b.WriteString("*")
		case Plus:
			b.WriteString("+")
		}
	}
}

// String renders the whole DTD as a sequence of declarations.
func (d *DTD) String() string {
	var b strings.Builder
	for _, name := range d.Order {
		model := d.Elements[name]
		fmt.Fprintf(&b, "<!ELEMENT %s %s>\n", name, model.String())
		for _, att := range d.Attlists[name] {
			fmt.Fprintf(&b, "<!ATTLIST %s %s %s", name, att.Name, att.Type)
			if att.Mode != "" {
				b.WriteString(" " + att.Mode)
			}
			// Without #REQUIRED or #IMPLIED the grammar requires a default
			// literal, empty or not.
			if att.Default != "" || att.Mode == "" || att.Mode == "#FIXED" {
				b.WriteString(" " + quoteLiteral(att.Default))
			}
			b.WriteString(">\n")
		}
	}
	return b.String()
}

// quoteLiteral renders s as an attribute-value literal that the parser
// reads back unchanged: between double quotes, or between single quotes
// when s holds a double quote. The parser keeps a literal's text as it is,
// without unescaping, so escaping here would change the value on every
// print and parse. A value holding both quote characters has no such form.
func quoteLiteral(s string) string {
	if strings.Contains(s, `"`) {
		return "'" + s + "'"
	}
	return `"` + s + `"`
}

// Equal reports whether two DTDs declare the same elements with structurally
// identical content models (attribute lists are ignored).
func (d *DTD) Equal(o *DTD) bool {
	if len(d.Elements) != len(o.Elements) {
		return false
	}
	for name, m := range d.Elements {
		om, ok := o.Elements[name]
		if !ok || !m.Equal(om) {
			return false
		}
	}
	return true
}

// TreeString renders the content model in the paper's tree notation, one
// node per line, for golden tests and debugging. Example for (b, c)*:
//
//	*
//	  AND
//	    b
//	    c
func (c *Content) TreeString() string {
	var b strings.Builder
	c.writeTree(&b, 0)
	return b.String()
}

func (c *Content) writeTree(b *strings.Builder, depth int) {
	b.WriteString(strings.Repeat("  ", depth))
	if c == nil {
		b.WriteString("EMPTY\n")
		return
	}
	if c.Kind == Name {
		b.WriteString(c.Name)
	} else {
		b.WriteString(c.Kind.String())
	}
	b.WriteByte('\n')
	for _, ch := range c.Children {
		ch.writeTree(b, depth+1)
	}
}
