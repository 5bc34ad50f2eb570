// Catalog demonstrates multi-DTD routing: a source holds two schemas
// (product catalogs and customer invoices); heterogeneous documents from
// the Web are routed to the best-matching DTD by structural similarity,
// documents too far from both land in the repository, and after an
// evolution step the repository is re-classified and recovered.
package main

import (
	"fmt"
	"log"

	"dtdevolve"
)

func main() {
	catalog, err := dtdevolve.ParseDTDString(`
<!ELEMENT catalog (product+)>
<!ELEMENT product (name, price)>
<!ELEMENT name (#PCDATA)>
<!ELEMENT price (#PCDATA)>`)
	if err != nil {
		log.Fatal(err)
	}
	catalog.Name = "catalog"

	invoice, err := dtdevolve.ParseDTDString(`
<!ELEMENT invoice (customer, amount)>
<!ELEMENT customer (#PCDATA)>
<!ELEMENT amount (#PCDATA)>`)
	if err != nil {
		log.Fatal(err)
	}
	invoice.Name = "invoice"

	cfg := dtdevolve.DefaultConfig()
	cfg.Sigma = 0.75
	cfg.AutoEvolve = false
	src := dtdevolve.NewSource(cfg)
	if err := src.AddDTD("catalog", catalog); err != nil {
		log.Fatal(err)
	}
	if err := src.AddDTD("invoice", invoice); err != nil {
		log.Fatal(err)
	}

	stream := []string{
		// Plain instances of both schemas.
		`<catalog><product><name>lamp</name><price>10</price></product></catalog>`,
		`<invoice><customer>acme</customer><amount>99</amount></invoice>`,
		// Near misses: close enough to classify, not valid.
		`<catalog><product><name>desk</name><price>80</price><sku>D-1</sku></product></catalog>`,
		`<invoice><customer>zenith</customer><amount>45</amount><due>2002-06-01</due></invoice>`,
		// Far from both: repository.
		`<catalog><vendor/><vendor/><vendor/><vendor/><vendor/><vendor/></catalog>`,
	}
	for _, s := range stream {
		doc, err := dtdevolve.ParseDocumentString(s)
		if err != nil {
			log.Fatal(err)
		}
		res := src.Add(doc)
		if res.Classified {
			fmt.Printf("-> %-8s (similarity %.3f)\n", res.DTDName, res.Similarity)
		} else {
			fmt.Printf("-> repository (best similarity %.3f)\n", res.Similarity)
		}
	}
	fmt.Printf("repository size: %d\n", src.RepositorySize())

	// More sku-bearing catalogs accumulate; evolve the catalog DTD.
	for i := 0; i < 10; i++ {
		doc, _ := dtdevolve.ParseDocumentString(
			`<catalog><product><name>n</name><price>1</price><sku>S</sku></product><vendor/></catalog>`)
		src.Add(doc)
	}
	report, recovered, err := src.EvolveNow("catalog")
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("\ncatalog evolution:")
	for _, c := range report.Changes {
		if c.Action.String() != "unchanged" {
			fmt.Printf("  %-8s %-10s -> %s\n", c.Name, c.Action, c.New)
		}
	}
	fmt.Printf("repository documents recovered: %d (repository now %d)\n",
		recovered, src.RepositorySize())
	fmt.Println("\nevolved catalog DTD:")
	fmt.Print(src.DTD("catalog").String())
}
