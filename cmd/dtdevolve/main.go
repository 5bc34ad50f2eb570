// Command dtdevolve runs the full lifecycle of the paper over a corpus: it
// classifies every document of a directory (or file list) against a DTD,
// records structural statistics, runs the evolution phase, and writes the
// evolved DTD.
//
// Usage:
//
//	dtdevolve -dtd schema.dtd [-root name] [-out evolved.dtd] \
//	          [-sigma 0.7] [-tau 0.25] [-psi 0.15] [-mu 0.2] doc.xml... | dir
//
// A report of per-element actions is printed to standard output.
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"

	"dtdevolve"
)

func main() {
	dtdPath := flag.String("dtd", "", "path to the initial DTD (required)")
	rootName := flag.String("root", "", "root element name the DTD describes")
	outPath := flag.String("out", "", "file to write the evolved DTD to (default: stdout)")
	sigma := flag.Float64("sigma", 0.7, "classification threshold σ")
	tau := flag.Float64("tau", 0.25, "evolution activation threshold τ")
	psi := flag.Float64("psi", 0.15, "evolution window threshold ψ")
	mu := flag.Float64("mu", 0.2, "minimum sequence support µ")
	flag.Usage = func() {
		fmt.Fprintf(os.Stderr, "usage: dtdevolve -dtd schema.dtd [flags] doc.xml... | dir\n")
		flag.PrintDefaults()
	}
	flag.Parse()
	if *dtdPath == "" || flag.NArg() == 0 {
		flag.Usage()
		os.Exit(2)
	}

	d, err := dtdevolve.ParseDTDFile(*dtdPath)
	if err != nil {
		fatal(err)
	}
	if *rootName != "" {
		d.Name = *rootName
	}

	cfg := dtdevolve.DefaultConfig()
	cfg.Sigma = *sigma
	cfg.Tau = *tau
	cfg.AutoEvolve = false
	cfg.Evolve.Psi = *psi
	cfg.Evolve.MinSupport = *mu

	src := dtdevolve.NewSource(cfg)
	if err := src.AddDTD("schema", d); err != nil {
		fatal(err)
	}

	paths, err := expandArgs(flag.Args())
	if err != nil {
		fatal(err)
	}
	classified, unclassified := 0, 0
	for _, path := range paths {
		doc, err := dtdevolve.ParseDocumentFile(path)
		if err != nil {
			fmt.Fprintf(os.Stderr, "dtdevolve: skipping %s: %v\n", path, err)
			continue
		}
		if res := src.Add(doc); res.Classified {
			classified++
		} else {
			unclassified++
			fmt.Printf("unclassified (similarity %.3f): %s\n", res.Similarity, path)
		}
	}
	fmt.Printf("classified %d documents, %d unclassified\n", classified, unclassified)
	if classified == 0 {
		fatal(fmt.Errorf("nothing classified: the DTD does not match the corpus (check -root and -sigma)"))
	}

	report, recovered, err := src.EvolveNow("schema")
	if err != nil {
		fatal(err)
	}
	fmt.Println("\nevolution report:")
	for _, c := range report.Changes {
		if c.Action.String() == "unchanged" {
			continue
		}
		fmt.Printf("  %-10s %-12s I=%.2f  %s -> %s\n", c.Name, c.Action, c.Invalidity, orDash(c.Old), c.New)
	}
	if recovered > 0 {
		fmt.Printf("recovered %d repository documents\n", recovered)
	}

	evolved := src.DTD("schema").String()
	if *outPath == "" {
		fmt.Println("\nevolved DTD:")
		fmt.Print(evolved)
		return
	}
	if err := os.WriteFile(*outPath, []byte(evolved), 0o644); err != nil {
		fatal(err)
	}
	fmt.Printf("evolved DTD written to %s\n", *outPath)
}

func orDash(s string) string {
	if s == "" {
		return "-"
	}
	return s
}

// expandArgs expands directory arguments into their .xml files.
func expandArgs(args []string) ([]string, error) {
	var out []string
	for _, arg := range args {
		info, err := os.Stat(arg)
		if err != nil {
			return nil, err
		}
		if !info.IsDir() {
			out = append(out, arg)
			continue
		}
		entries, err := os.ReadDir(arg)
		if err != nil {
			return nil, err
		}
		for _, e := range entries {
			if !e.IsDir() && strings.HasSuffix(e.Name(), ".xml") {
				out = append(out, filepath.Join(arg, e.Name()))
			}
		}
	}
	sort.Strings(out)
	return out, nil
}

func fatal(err error) {
	fmt.Fprintf(os.Stderr, "dtdevolve: %v\n", err)
	os.Exit(1)
}
