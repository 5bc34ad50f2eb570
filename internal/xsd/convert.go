package xsd

import (
	"fmt"

	"dtdevolve/internal/dtd"
)

// FromDTD converts a DTD into the XSD subset. The conversion is lossless
// for the structural content: DTD operators map onto occurrence ranges
// (? → 0..1, * → 0..unbounded, + → 1..unbounded), (#PCDATA) maps to the
// xs:string simple type, mixed content maps to mixed="true", EMPTY to an
// empty complex type, and ANY to xs:anyType. ATTLIST definitions become
// xs:attribute declarations.
func FromDTD(d *dtd.DTD) *Schema {
	s := NewSchema(d.Name)
	for _, name := range d.Order {
		s.Declare(elementFromDTD(name, d.Elements[name], d.Attlists[name]))
	}
	return s
}

func elementFromDTD(name string, model *dtd.Content, atts []dtd.AttDef) *Element {
	e := &Element{Name: name}
	attributes := attributesFromDTD(atts)
	switch {
	case model == nil || model.Kind == dtd.Any:
		e.Any = true
		if len(attributes) > 0 {
			e.Type = &ComplexType{Attributes: attributes}
			e.Any = false
			e.Type.Particle = &Particle{Kind: AnyParticle, MinOccurs: 0, MaxOccurs: Unbounded}
		}
		return e
	case model.Kind == dtd.PCDATA:
		if len(attributes) == 0 {
			return e // simple xs:string element
		}
		// Attributes force a complex type with simple (mixed) content.
		e.Type = &ComplexType{Mixed: true, Attributes: attributes}
		return e
	case model.Kind == dtd.Empty:
		e.Type = &ComplexType{Attributes: attributes}
		return e
	case model.IsMixed():
		ct := &ComplexType{Mixed: true, Attributes: attributes}
		labels := model.Labels()
		if len(labels) > 0 {
			kids := make([]*Particle, len(labels))
			for i, l := range labels {
				kids[i] = NewRef(l)
			}
			choice := NewChoice(kids...)
			choice.MinOccurs = 0
			choice.MaxOccurs = Unbounded
			ct.Particle = choice
		}
		e.Type = ct
		return e
	default:
		p := particleFromContent(model)
		// A complexType's content must be a model group, not a bare
		// element reference or wildcard.
		if p != nil && (p.Kind == ElementRef || p.Kind == AnyParticle) {
			p = NewSequence(p)
		}
		e.Type = &ComplexType{Particle: p, Attributes: attributes}
		return e
	}
}

func attributesFromDTD(atts []dtd.AttDef) []Attribute {
	out := make([]Attribute, 0, len(atts))
	for _, a := range atts {
		att := Attribute{Name: a.Name, Type: xsdAttrType(a.Type)}
		if a.Mode == "#REQUIRED" {
			att.Use = "required"
		}
		out = append(out, att)
	}
	return out
}

func xsdAttrType(dtdType string) string {
	switch dtdType {
	case "ID":
		return "xs:ID"
	case "IDREF":
		return "xs:IDREF"
	case "IDREFS":
		return "xs:IDREFS"
	case "NMTOKEN":
		return "xs:NMTOKEN"
	case "NMTOKENS":
		return "xs:NMTOKENS"
	case "ENTITY":
		return "xs:ENTITY"
	default:
		return "xs:string" // CDATA and enumerations approximate to string
	}
}

func particleFromContent(c *dtd.Content) *Particle {
	switch c.Kind {
	case dtd.Name:
		return NewRef(c.Name)
	case dtd.Seq:
		kids := make([]*Particle, len(c.Children))
		for i, ch := range c.Children {
			kids[i] = particleFromContent(ch)
		}
		return NewSequence(kids...)
	case dtd.Choice:
		kids := make([]*Particle, len(c.Children))
		for i, ch := range c.Children {
			kids[i] = particleFromContent(ch)
		}
		return NewChoice(kids...)
	case dtd.Opt:
		p := particleFromContent(c.Children[0])
		return withOccurs(p, 0, 1)
	case dtd.Star:
		p := particleFromContent(c.Children[0])
		return withOccurs(p, 0, Unbounded)
	case dtd.Plus:
		p := particleFromContent(c.Children[0])
		return withOccurs(p, 1, Unbounded)
	case dtd.Any:
		return &Particle{Kind: AnyParticle, MinOccurs: 0, MaxOccurs: Unbounded}
	default:
		return nil
	}
}

// withOccurs applies an occurrence range to a particle; a particle that
// already has a non-default range is wrapped in a singleton sequence so
// nothing is lost (e.g. (a?)+ in a hand-built model).
func withOccurs(p *Particle, min, max int) *Particle {
	if p.MinOccurs == 1 && p.MaxOccurs == 1 {
		p.MinOccurs, p.MaxOccurs = min, max
		return p
	}
	wrap := NewSequence(p)
	wrap.MinOccurs, wrap.MaxOccurs = min, max
	return wrap
}

// ToDTD converts the schema back into a DTD. The conversion is exact
// except where DTDs have no form for the schema's content, and every
// approximation is reported: bounded occurrence ranges (e.g.
// maxOccurs="3") become + when min>0 and * when min=0, and an xs:any
// other than a whole content of any number of elements (what FromDTD
// writes for ANY) becomes a choice of the schema's declared elements,
// since a DTD declares ANY only as a whole content.
func ToDTD(s *Schema) (*dtd.DTD, []string) {
	d := dtd.NewDTD(s.Root)
	var notes []string
	for _, name := range s.Order {
		e := s.Elements[name]
		model := contentFromElement(e, s.Order, &notes)
		d.Declare(name, model)
		if e.Type != nil {
			for _, a := range e.Type.Attributes {
				def := dtd.AttDef{Name: a.Name, Type: dtdAttrType(a.Type)}
				if a.Use == "required" {
					def.Mode = "#REQUIRED"
				} else {
					def.Mode = "#IMPLIED"
				}
				d.Attlists[name] = append(d.Attlists[name], def)
			}
		}
	}
	return dtd.RewriteDTD(d), notes
}

func dtdAttrType(xsdType string) string {
	switch xsdType {
	case "xs:ID":
		return "ID"
	case "xs:IDREF":
		return "IDREF"
	case "xs:IDREFS":
		return "IDREFS"
	case "xs:NMTOKEN":
		return "NMTOKEN"
	case "xs:NMTOKENS":
		return "NMTOKENS"
	case "xs:ENTITY":
		return "ENTITY"
	default:
		return "CDATA"
	}
}

// contentFromElement converts e's content; names are the schema's
// declared elements, which stand in for an xs:any.
func contentFromElement(e *Element, names []string, notes *[]string) *dtd.Content {
	switch {
	case e.Any:
		return dtd.NewAny()
	case e.Type == nil:
		return dtd.NewPCDATA()
	case e.Type.Particle == nil:
		if e.Type.Mixed {
			return dtd.NewPCDATA()
		}
		return dtd.NewEmpty()
	case wholeAny(e.Type.Particle):
		return dtd.NewAny()
	case e.Type.Mixed:
		labels := collectRefs(e.Type.Particle)
		kids := []*dtd.Content{dtd.NewPCDATA()}
		for _, l := range labels {
			kids = append(kids, dtd.NewName(l))
		}
		if len(kids) == 1 {
			return dtd.NewPCDATA()
		}
		return dtd.NewStar(dtd.NewChoice(kids...))
	default:
		return contentFromParticle(e.Name, e.Type.Particle, names, notes)
	}
}

// wholeAny reports whether p is one xs:any of any number of elements, the
// content FromDTD writes for an ANY element with attributes.
func wholeAny(p *Particle) bool {
	return p.Kind == AnyParticle && p.MinOccurs == 0 && p.MaxOccurs == Unbounded
}

func collectRefs(p *Particle) []string {
	if p == nil {
		return nil
	}
	var out []string
	seen := make(map[string]bool)
	var visit func(*Particle)
	visit = func(q *Particle) {
		if q.Kind == ElementRef && !seen[q.Ref] {
			seen[q.Ref] = true
			out = append(out, q.Ref)
		}
		for _, ch := range q.Children {
			visit(ch)
		}
	}
	visit(p)
	return out
}

func contentFromParticle(owner string, p *Particle, names []string, notes *[]string) *dtd.Content {
	var core *dtd.Content
	switch p.Kind {
	case ElementRef:
		core = dtd.NewName(p.Ref)
	case AnyParticle:
		*notes = append(*notes, fmt.Sprintf("%s: xs:any approximated as a choice of the declared elements", owner))
		kids := make([]*dtd.Content, len(names))
		for i, n := range names {
			kids[i] = dtd.NewName(n)
		}
		core = dtd.NewChoice(kids...)
	case Sequence:
		kids := make([]*dtd.Content, len(p.Children))
		for i, ch := range p.Children {
			kids[i] = contentFromParticle(owner, ch, names, notes)
		}
		core = dtd.NewSeq(kids...)
	case Choice:
		kids := make([]*dtd.Content, len(p.Children))
		for i, ch := range p.Children {
			kids[i] = contentFromParticle(owner, ch, names, notes)
		}
		core = dtd.NewChoice(kids...)
	}
	return applyOccurs(owner, core, p.MinOccurs, p.MaxOccurs, notes)
}

func applyOccurs(owner string, core *dtd.Content, min, max int, notes *[]string) *dtd.Content {
	switch {
	case min == 1 && max == 1:
		return core
	case min == 0 && max == 1:
		return dtd.NewOpt(core)
	case min == 0 && max == Unbounded:
		return dtd.NewStar(core)
	case min == 1 && max == Unbounded:
		return dtd.NewPlus(core)
	case min == 0:
		*notes = append(*notes, fmt.Sprintf("%s: occurrence %s approximated as *", owner, occursString(min, max)))
		return dtd.NewStar(core)
	default:
		*notes = append(*notes, fmt.Sprintf("%s: occurrence %s approximated as +", owner, occursString(min, max)))
		return dtd.NewPlus(core)
	}
}
