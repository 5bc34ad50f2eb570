// Newsfeed simulates the paper's motivating scenario: a feed of news
// articles whose structure drifts over time (editors start adding bylines,
// then tag lists), while a Source keeps the article DTD aligned with the
// population automatically.
package main

import (
	"fmt"
	"log"

	"dtdevolve"
)

func main() {
	d, err := dtdevolve.ParseDTDString(`
<!ELEMENT article (headline, body)>
<!ELEMENT headline (#PCDATA)>
<!ELEMENT body (#PCDATA)>`)
	if err != nil {
		log.Fatal(err)
	}
	d.Name = "article"

	cfg := dtdevolve.DefaultConfig()
	cfg.Sigma = 0.6 // era-3 articles drift further; keep them classifiable
	cfg.MinDocs = 10
	src := dtdevolve.NewSource(cfg)
	if err := src.AddDTD("article", d); err != nil {
		log.Fatal(err)
	}

	phases := []struct {
		name string
		doc  string
		n    int
	}{
		{"era 1: original schema",
			`<article><headline>h</headline><body>b</body></article>`, 15},
		{"era 2: bylines appear",
			`<article><headline>h</headline><byline>reporter</byline><body>b</body></article>`, 25},
		{"era 3: tag lists appear",
			`<article><headline>h</headline><byline>r</byline><body>b</body><tag>x</tag><tag>y</tag></article>`, 25},
	}

	for _, phase := range phases {
		fmt.Printf("--- %s (%d documents) ---\n", phase.name, phase.n)
		evolutions := 0
		var lastSim float64
		for i := 0; i < phase.n; i++ {
			doc, err := dtdevolve.ParseDocumentString(phase.doc)
			if err != nil {
				log.Fatal(err)
			}
			res := src.Add(doc)
			lastSim = res.Similarity
			if !res.Classified {
				fmt.Printf("  doc %d went to the repository (similarity %.3f)\n", i+1, res.Similarity)
			}
			if res.Evolved {
				evolutions++
				fmt.Printf("  evolution triggered at doc %d\n", i+1)
				for _, c := range res.Report.Changes {
					if c.Action.String() != "unchanged" {
						fmt.Printf("    %-9s %-10s -> %s\n", c.Name, c.Action, c.New)
					}
				}
			}
		}
		fmt.Printf("  end of era: similarity of the era's shape = %.3f, evolutions = %d\n",
			lastSim, evolutions)
	}

	fmt.Println("\nfinal DTD:")
	fmt.Print(src.DTD("article").String())
	for _, st := range src.Status() {
		fmt.Printf("status: %d evolutions, %d docs since last, check ratio %.3f\n",
			st.Evolutions, st.Docs, st.CheckRatio)
	}
}
