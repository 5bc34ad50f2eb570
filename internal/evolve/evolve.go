// Package evolve implements the paper's evolution phase (§4): turning the
// statistics of the extended DTD (package record) into a new set of DTD
// declarations.
//
// The algorithm works element by element. Each declared element e falls in
// one of three windows according to its invalidity ratio I(e) and the
// threshold ψ (0 ≤ ψ ≤ 0.5):
//
//   - old window, I(e) ∈ [0, ψ]: the declaration is kept; where all
//     recorded instances agree, operators are restricted (e.g. * → +);
//   - new window, I(e) ∈ [1-ψ, 1]: the declaration is rebuilt from the
//     recorded sequences using association rules and the heuristic
//     policies (see extract.go);
//   - misc window, otherwise: a declaration is rebuilt from the new
//     documents and OR-ed with the previous one, then simplified with the
//     DTD re-writing rules; when either side admits text, the OR widens
//     to the mixed declaration over both sides' labels.
//
// Plus elements (tags that appear in documents but have no declaration)
// referenced by a rebuilt declaration receive brand-new declarations,
// extracted recursively from their nested statistics against an empty DTD
// (paper Example 5, tree (4)).
package evolve

import (
	"fmt"

	"dtdevolve/internal/dtd"
	"dtdevolve/internal/record"
)

// Config holds the evolution parameters.
type Config struct {
	// Psi is the window threshold ψ ∈ [0, 0.5]: old window is [0, ψ], new
	// window is [1-ψ, 1].
	Psi float64
	// MinSupport is the paper's µ: the minimum support for a sequence of
	// element tags to participate in rule extraction.
	MinSupport float64
	// MinConfidence is the confidence bound for rules; the paper uses
	// maximal-confidence rules (1.0).
	MinConfidence float64
	// MinRestrictSamples is the minimum number of recorded instances before
	// an old-window operator restriction is applied; it prevents a handful
	// of documents from tightening a DTD.
	MinRestrictSamples int
	// MaxExtractDepth caps the recursive extraction of plus-element
	// declarations.
	MaxExtractDepth int
	// DisableAbsentAugmentation turns off the paper's absent-element
	// augmentation (Example 4) before rule mining. Only OR structure
	// discovery depends on it; the flag exists for the ablation experiment
	// E9 and should stay false in normal use.
	DisableAbsentAugmentation bool
}

// DefaultConfig returns the parameters used by the evaluation harness.
func DefaultConfig() Config {
	return Config{
		Psi:                0.15,
		MinSupport:         0.2,
		MinConfidence:      1.0,
		MinRestrictSamples: 10,
		MaxExtractDepth:    16,
	}
}

// Action describes what the evolution phase did to one element declaration.
type Action int

const (
	// Unchanged: the declaration was kept as-is (old window, or no data).
	Unchanged Action = iota
	// Restricted: old window, with one or more operators restricted.
	Restricted
	// Rebuilt: new window, declaration rebuilt from recorded structure.
	Rebuilt
	// Merged: misc window, new structure OR-ed with the old declaration.
	Merged
	// Added: a brand-new declaration extracted for a plus element.
	Added
)

// String returns a human-readable action name.
func (a Action) String() string {
	switch a {
	case Unchanged:
		return "unchanged"
	case Restricted:
		return "restricted"
	case Rebuilt:
		return "rebuilt"
	case Merged:
		return "merged"
	case Added:
		return "added"
	default:
		return fmt.Sprintf("Action(%d)", int(a))
	}
}

// ElementChange reports the evolution outcome for one element.
type ElementChange struct {
	Name       string
	Action     Action
	Invalidity float64
	Old        string // old content model ("" for added elements)
	New        string
}

// Report summarizes one evolution run.
type Report struct {
	Changes []ElementChange
}

// Evolve produces a new DTD from the recorder's DTD and statistics. The
// input DTD is not modified. The recorder is left untouched; callers
// typically Reset (or SetDTD) it afterwards.
//
// WAL replay and followers re-run Evolve for every journaled evolution
// instead of journaling its result, so its output must be a function of
// its inputs alone.
// dtdvet:replayroot
func Evolve(rec *record.Recorder, cfg Config) (*dtd.DTD, Report) {
	if cfg.MaxExtractDepth <= 0 {
		cfg.MaxExtractDepth = 16
	}
	old := rec.DTD()
	out := old.Clone()
	var report Report

	for _, name := range old.Order {
		model := old.Elements[name]
		stats := rec.Stats(name)
		if stats == nil || stats.TotalInstances() == 0 {
			report.Changes = append(report.Changes, ElementChange{
				Name: name, Action: Unchanged, Old: model.String(), New: model.String(),
			})
			continue
		}
		inv := stats.InvalidityRatio()
		change := ElementChange{Name: name, Invalidity: inv, Old: model.String()}
		switch {
		case inv <= cfg.Psi:
			restricted := Restrict(model, stats, cfg)
			if restricted.Equal(model) {
				change.Action = Unchanged
			} else {
				change.Action = Restricted
				out.Elements[name] = restricted
			}
		case inv >= 1-cfg.Psi:
			rebuilt := ExtractStructure(stats, cfg)
			change.Action = Rebuilt
			out.Elements[name] = rebuilt
			declarePlusElements(out, stats, cfg, 0, &report)
		default:
			rebuilt := ExtractStructure(stats, cfg)
			merged := dtd.Rewrite(dtd.NewChoice(model.Clone(), rebuilt))
			if merged.HasPCDATA() {
				// A DTD admits text beside elements only in mixed content,
				// so the OR of a text-bearing side widens to the mixed
				// model over both sides' labels (sorted: replay re-runs
				// this).
				merged = mixed(merged.Labels())
			}
			change.Action = Merged
			out.Elements[name] = merged
			declarePlusElements(out, stats, cfg, 0, &report)
		}
		change.New = out.Elements[name].String()
		report.Changes = append(report.Changes, change)
	}
	result := dtd.RewriteDTD(out)
	// RewriteDTD clones; keep the report's New strings consistent.
	for i := range report.Changes {
		if m, ok := result.Elements[report.Changes[i].Name]; ok {
			report.Changes[i].New = m.String()
		}
	}
	return result, report
}

// declarePlusElements walks the recorded labels of stats and, for every
// plus element (nested statistics present) that the evolved DTD does not
// declare yet, extracts a declaration from its nested statistics —
// recursively, since plus elements may contain further plus elements.
func declarePlusElements(out *dtd.DTD, stats *record.ElementStats, cfg Config, depth int, report *Report) {
	if depth >= cfg.MaxExtractDepth {
		return
	}
	for _, label := range stats.LabelSet() {
		ls := stats.Labels[label]
		if ls.Child == nil {
			continue
		}
		if _, declared := out.Elements[label]; declared {
			continue
		}
		model := ExtractStructure(ls.Child, cfg)
		out.Declare(label, model)
		report.Changes = append(report.Changes, ElementChange{
			Name:   label,
			Action: Added,
			New:    model.String(),
		})
		declarePlusElements(out, ls.Child, cfg, depth+1, report)
	}
}

// Restrict applies the paper's old-window "restriction of operators": when
// every recorded instance agrees, an operator is narrowed to fit the
// population (e.g. b* becomes b+ when every instance contains at least one
// b). Restrictions require at least MinRestrictSamples recorded instances.
// The input model is not modified.
func Restrict(model *dtd.Content, stats *record.ElementStats, cfg Config) *dtd.Content {
	if stats.TotalInstances() < cfg.MinRestrictSamples {
		return model.Clone()
	}
	return restrict(model.Clone(), stats)
}

func restrict(c *dtd.Content, stats *record.ElementStats) *dtd.Content {
	for i, ch := range c.Children {
		c.Children[i] = restrict(ch, stats)
	}
	switch c.Kind {
	case dtd.Opt:
		// x? → x when x was always present.
		if tag, ok := leafName(c.Children[0]); ok && stats.AlwaysPresent(tag) {
			return c.Children[0]
		}
	case dtd.Plus:
		// x+ → x when x was never repeated.
		if tag, ok := leafName(c.Children[0]); ok && stats.EverPresent(tag) && !stats.EverRepeated(tag) {
			return c.Children[0]
		}
	case dtd.Star:
		tag, ok := leafName(c.Children[0])
		if !ok {
			return c
		}
		always := stats.AlwaysPresent(tag)
		repeated := stats.EverRepeated(tag)
		switch {
		case always && repeated:
			return dtd.NewPlus(c.Children[0])
		case always && !repeated:
			return c.Children[0]
		case !always && !repeated && stats.EverPresent(tag):
			return dtd.NewOpt(c.Children[0])
		}
	case dtd.Choice:
		// Prune alternatives whose labels never occurred; if exactly one
		// alternative was ever used, the OR restricts to it.
		var used []*dtd.Content
		for _, alt := range c.Children {
			if alt.Kind == dtd.PCDATA || anyLabelPresent(alt, stats) {
				used = append(used, alt)
			}
		}
		if len(used) >= 1 && len(used) < len(c.Children) {
			if len(used) == 1 {
				return used[0]
			}
			return dtd.NewChoice(used...)
		}
	}
	return c
}

// leafName returns the element name when c is a bare Name node.
func leafName(c *dtd.Content) (string, bool) {
	if c.Kind == dtd.Name {
		return c.Name, true
	}
	return "", false
}

func anyLabelPresent(c *dtd.Content, stats *record.ElementStats) bool {
	for _, l := range c.Labels() {
		if stats.EverPresent(l) {
			return true
		}
	}
	return false
}
