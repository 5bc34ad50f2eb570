// Command dtdcheck inspects XML documents against a DTD: it reports strict
// validity (with violations) and the paper's global and local structural
// similarity degrees.
//
// Usage:
//
//	dtdcheck -dtd schema.dtd [-root name] [-decay 0.5] doc.xml...
//
// With no -dtd flag, each document must embed its DTD in an internal
// DOCTYPE subset.
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"

	"dtdevolve"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run is the command with its arguments and output streams; it returns the
// exit status: 0 when every document is valid, 1 on an invalid or unreadable
// document, 2 on bad usage.
func run(args []string, stdout, stderr io.Writer) int {
	flags := flag.NewFlagSet("dtdcheck", flag.ContinueOnError)
	flags.SetOutput(stderr)
	dtdPath := flags.String("dtd", "", "path to the DTD file (default: use each document's internal subset)")
	rootName := flags.String("root", "", "root element name the DTD describes (default: first declared element)")
	decay := flags.Float64("decay", 0.5, "level decay of the similarity measure (0, 1]")
	flags.Usage = func() {
		fmt.Fprintf(stderr, "usage: dtdcheck [-dtd schema.dtd] [-root name] [-decay d] doc.xml...\n")
		flags.PrintDefaults()
	}
	if err := flags.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return 2
	}
	if flags.NArg() == 0 {
		flags.Usage()
		return 2
	}
	// Outside (0, 1] the measure is undefined: global similarity 1 no longer
	// coincides with validity, and a negative decay makes skipping required
	// content a gain, so the alignment never settles.
	if !(*decay > 0 && *decay <= 1) {
		fmt.Fprintf(stderr, "dtdcheck: -decay %v is outside (0, 1]\n", *decay)
		flags.Usage()
		return 2
	}

	var shared *dtdevolve.DTD
	if *dtdPath != "" {
		d, err := dtdevolve.ParseDTDFile(*dtdPath)
		if err != nil {
			fmt.Fprintf(stderr, "dtdcheck: %v\n", err)
			return 1
		}
		if *rootName != "" {
			d.Name = *rootName
		}
		shared = d
		warnNondeterministic(stderr, d)
	}

	cfg := dtdevolve.DefaultSimilarityConfig()
	cfg.Decay = *decay

	exit := 0
	for _, path := range flags.Args() {
		doc, err := dtdevolve.ParseDocumentFile(path)
		if err != nil {
			fmt.Fprintf(stderr, "dtdcheck: %v\n", err)
			exit = 1
			continue
		}
		d := shared
		if d == nil {
			d, err = dtdevolve.DocumentDTD(doc)
			if err != nil {
				fmt.Fprintf(stderr, "dtdcheck: %s: internal subset: %v\n", path, err)
				exit = 1
				continue
			}
			if d == nil {
				fmt.Fprintf(stderr, "dtdcheck: %s: no -dtd flag and no internal DTD subset\n", path)
				exit = 1
				continue
			}
		}
		res := dtdevolve.SimilarityDetail(doc, d, cfg)
		violations := dtdevolve.Validate(doc, d)
		status := "VALID"
		if len(violations) > 0 {
			status = fmt.Sprintf("INVALID (%d violations)", len(violations))
			exit = 1
		}
		fmt.Fprintf(stdout, "%s: %s global=%.4f local=%.4f (plus=%.2f minus=%.2f common=%.2f)\n",
			path, status, res.Global, res.Local, res.Triple.Plus, res.Triple.Minus, res.Triple.Common)
		for _, v := range violations {
			fmt.Fprintf(stdout, "  %s\n", v)
		}
	}
	return exit
}

// warnNondeterministic flags declarations violating the XML 1.0
// deterministic-content-model constraint (this tool's validator still
// handles them, but conforming processors may not).
func warnNondeterministic(stderr io.Writer, d *dtdevolve.DTD) {
	for name, issues := range dtdevolve.CheckDeterminism(d) {
		for _, issue := range issues {
			fmt.Fprintf(stderr, "dtdcheck: warning: <!ELEMENT %s>: nondeterministic content model: %s\n", name, issue)
		}
	}
}
