// Package validate implements a DTD validator: the rigid, boolean
// classification mechanism the paper contrasts with its similarity-based
// approach, and the ground-truth notion of validity that the similarity
// measure must agree with (global similarity 1 ⟺ valid).
//
// Content-model matching runs one Thompson-style automaton per content
// model (automaton.go) as a reachable-state bitset, advanced once per child
// element by its interned label ID: deciding an element's local validity is
// linear in its children. Automata are compiled on first use and cached per
// Validator, and run scratch is pooled, so the recording hot path —
// LocalValid on every element of every document — does not allocate at
// steady state. The same automaton carries the similarity alignment and the
// determinism and equivalence analyses (analysis.go).
package validate

import (
	"fmt"
	"slices"
	"strings"
	"sync"

	"dtdevolve/internal/dtd"
	"dtdevolve/internal/intern"
	"dtdevolve/internal/xmltree"
)

// Violation describes one way in which a document fails to conform to a DTD.
type Violation struct {
	// Path locates the offending element, e.g. "/catalog/product[2]/name".
	Path string
	// Element is the tag of the offending element.
	Element string
	// Msg explains the violation.
	Msg string
}

func (v Violation) String() string {
	return fmt.Sprintf("%s <%s>: %s", v.Path, v.Element, v.Msg)
}

// Validator validates documents against one DTD. A Validator is safe for
// concurrent use: its only mutable state is the automaton cache.
type Validator struct {
	d *dtd.DTD
	// tab labels the automata's symbol edges; a child steps a run by its
	// ID in tab.
	tab *intern.Table
	// autos maps each content model LocalValid has seen to its automaton
	// (*dtd.Content → *Automaton). Models compile on first use, never in
	// New: a registry keeps thousands of validators live and exercises few
	// of their models.
	autos sync.Map
}

// New returns a Validator for d with a private symbol table. To validate
// documents stamped by a shared table without looking their tags up, use
// NewWithTable.
func New(d *dtd.DTD) *Validator {
	return NewWithTable(d, intern.NewTable())
}

// NewWithTable returns a Validator for d whose automata run on tab's IDs.
func NewWithTable(d *dtd.DTD, tab *intern.Table) *Validator {
	return &Validator{d: d, tab: tab}
}

// Valid reports whether the whole document is valid for the DTD.
func (v *Validator) Valid(doc *xmltree.Document) bool {
	return len(v.ValidateDocument(doc)) == 0
}

// ValidateDocument checks the document root (against the DTD's root element
// name, when the DTD has one) and every element recursively, returning all
// violations found.
func (v *Validator) ValidateDocument(doc *xmltree.Document) []Violation {
	if doc == nil || doc.Root == nil {
		return []Violation{{Path: "/", Msg: "document has no root element"}}
	}
	var out []Violation
	if v.d.Name != "" && doc.Root.Name != v.d.Name {
		out = append(out, Violation{
			Path:    "/" + doc.Root.Name,
			Element: doc.Root.Name,
			Msg:     fmt.Sprintf("root element is <%s>, DTD declares <%s>", doc.Root.Name, v.d.Name),
		})
	}
	out = append(out, v.ValidateElement(doc.Root)...)
	return out
}

// ValidateElement validates the subtree rooted at n, returning all
// violations found.
func (v *Validator) ValidateElement(n *xmltree.Node) []Violation {
	var out []Violation
	v.validate(n, "/"+n.Name, &out)
	return out
}

func (v *Validator) validate(n *xmltree.Node, path string, out *[]Violation) {
	model, declared := v.d.Elements[n.Name]
	if !declared {
		*out = append(*out, Violation{Path: path, Element: n.Name, Msg: "element is not declared in the DTD"})
		// Children cannot be checked against a model, but they may still
		// reference declared elements; keep descending.
		for i, c := range n.ChildElements() {
			v.validate(c, childPath(path, c.Name, i), out)
		}
		return
	}
	if err := v.localViolation(n, model); err != "" {
		*out = append(*out, Violation{Path: path, Element: n.Name, Msg: err})
	}
	for i, c := range n.ChildElements() {
		v.validate(c, childPath(path, c.Name, i), out)
	}
}

func childPath(parent, name string, i int) string {
	return fmt.Sprintf("%s/%s[%d]", parent, name, i)
}

// LocalValid reports whether element n's direct content conforms to model:
// the paper's one-level validity, whose numeric counterpart is local
// similarity. It does not descend into grandchildren. LocalValid never
// allocates at steady state — it sits on the recording hot path, called
// once per element of every document; diagnostics belong to
// localViolation.
func (v *Validator) LocalValid(n *xmltree.Node, model *dtd.Content) bool {
	switch {
	case model == nil || model.Kind == dtd.Any:
		return true
	case model.Kind == dtd.Empty:
		return len(n.Children) == 0
	case !model.IsMixed() && n.HasText():
		return false
	}
	r := runs.Get().(*Run)
	r.Reset(v.automaton(model))
	view := v.tab.View()
	for _, c := range n.Children {
		if c.Kind == xmltree.Element && !r.Step(labelID(view, c)) {
			break
		}
	}
	ok := r.Accepts()
	runs.Put(r)
	return ok
}

// labelID is the ID of element c's tag in view: the node's cached LabelID
// when it names the tag there (the source stamps documents with its
// table), else a lookup, None for a tag the table never saw.
func labelID(view intern.View, c *xmltree.Node) int32 {
	if id := c.LabelID(); id > 0 && view.NameIs(id, c.Name) {
		return id
	}
	return view.ID(c.Name)
}

// automaton returns the automaton LocalValid runs for the children of an
// element declared with model, compiling and caching it on first use. A
// mixed model admits its labels in any order and number. Safe for
// concurrent use.
func (v *Validator) automaton(model *dtd.Content) *Automaton {
	if a, ok := v.autos.Load(model); ok {
		return a.(*Automaton)
	}
	src := model
	if model.IsMixed() {
		var names []*dtd.Content
		for _, l := range model.Labels() {
			names = append(names, dtd.NewName(l))
		}
		src = dtd.NewStar(dtd.NewChoice(names...))
	}
	a, _ := v.autos.LoadOrStore(model, Compile(src, v.tab))
	return a.(*Automaton)
}

// localViolation returns "" when n's direct content conforms to model, or a
// description of the mismatch. Messages are only built after LocalValid
// fails, so ValidateDocument on a valid document allocates no diagnostics.
func (v *Validator) localViolation(n *xmltree.Node, model *dtd.Content) string {
	if v.LocalValid(n, model) {
		return ""
	}
	switch {
	case model.Kind == dtd.Empty:
		return "declared EMPTY but has content"
	case model.Kind == dtd.PCDATA:
		return fmt.Sprintf("declared (#PCDATA) but has element children %v", n.ChildTags())
	case model.IsMixed():
		allowed := model.Labels()
		for _, c := range n.Children {
			if c.Kind == xmltree.Element && !slices.Contains(allowed, c.Name) {
				return fmt.Sprintf("element <%s> not allowed in mixed content %s", c.Name, model)
			}
		}
	case n.HasText():
		return fmt.Sprintf("character data not allowed in element content %s", model)
	}
	return fmt.Sprintf("children %v do not match content model %s", compactTags(n.ChildTags()), model)
}

func compactTags(tags []string) string {
	if len(tags) == 0 {
		return "(none)"
	}
	return "(" + strings.Join(tags, ", ") + ")"
}

// MatchModel reports whether the sequence of child tags matches the content
// model exactly. It treats the model as an element-content model; PCDATA
// leaves match the empty sequence (character data carries no child tags).
func MatchModel(model *dtd.Content, tags []string) bool {
	return Matcher(model)(tags)
}

// Matcher compiles model once and returns MatchModel over it, for callers
// that decide many tag sequences against one model. The returned function
// is not safe for concurrent use.
func Matcher(model *dtd.Content) func(tags []string) bool {
	if model == nil || model.Kind == dtd.Any {
		return func([]string) bool { return true }
	}
	tab := intern.NewTable()
	a := Compile(model, tab)
	var r Run
	return func(tags []string) bool {
		r.Reset(a)
		for _, t := range tags {
			if !r.Step(tab.ID(t)) {
				return false
			}
		}
		return r.Accepts()
	}
}
