// Schemaregistry combines every extension of the paper's §6 into one
// scenario: a registry service manages an order schema as XSD, converts it
// to a DTD to run the lifecycle, keeps classified documents in a durable
// store, lets a trigger rule decide when to evolve, recognizes synonym tags
// through a thesaurus, and finally adapts the stored documents to the
// evolved schema before publishing it back as XSD.
package main

import (
	"fmt"
	"log"
	"os"

	"dtdevolve"
)

func main() {
	// The registry's published schema, maintained as XSD.
	schemaXSD := `<?xml version="1.0"?>
<xs:schema xmlns:xs="http://www.w3.org/2001/XMLSchema">
  <xs:element name="order">
    <xs:complexType>
      <xs:sequence>
        <xs:element ref="customer"/>
        <xs:element ref="item" maxOccurs="unbounded"/>
      </xs:sequence>
    </xs:complexType>
  </xs:element>
  <xs:element name="customer" type="xs:string"/>
  <xs:element name="item" type="xs:string"/>
</xs:schema>`
	f, err := os.CreateTemp("", "registry-*.xsd")
	if err != nil {
		log.Fatal(err)
	}
	defer os.Remove(f.Name())
	if _, err := f.WriteString(schemaXSD); err != nil {
		log.Fatal(err)
	}
	f.Close()

	schemaFile, err := os.Open(f.Name())
	if err != nil {
		log.Fatal(err)
	}
	schema, err := dtdevolve.ParseSchema(schemaFile)
	schemaFile.Close()
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("registered schema:")
	fmt.Print(schema.Summary())

	// The lifecycle runs at the DTD level.
	d, notes := dtdevolve.SchemaToDTD(schema)
	for _, n := range notes {
		fmt.Println("conversion note:", n)
	}

	// A thesaurus: some producers say <client> for <customer>.
	th, err := dtdevolve.LoadThesaurusString(`customer = client`)
	if err != nil {
		log.Fatal(err)
	}

	cfg := dtdevolve.DefaultConfig()
	cfg.AutoEvolve = false // the trigger rule is in charge
	cfg.Similarity.TagSimilarity = th.SimilarityFunc()
	src := dtdevolve.NewSource(cfg)
	if err := src.AddDTD("order", d); err != nil {
		log.Fatal(err)
	}
	if err := src.EnableStore(""); err != nil { // in-memory store for the demo
		log.Fatal(err)
	}
	defer src.CloseStore()
	if err := src.AddTriggerRule("on order when check_ratio >= 0.2 and docs >= 12 do evolve, reclassify"); err != nil {
		log.Fatal(err)
	}
	fmt.Println("\ntrigger installed:", src.TriggerRules()[0])

	// Era 1: conforming orders (some use the synonym <client>, which the
	// thesaurus keeps classifiable; once enough accumulate, the trigger
	// may already fire and fold <client> into the schema).
	for i := 0; i < 6; i++ {
		feed(src, `<order><customer>acme</customer><item>bolt</item></order>`)
		feed(src, `<order><client>zenith</client><item>nut</item><item>washer</item></order>`)
	}
	// Era 2: producers add a total element; the trigger fires (again).
	drifted := `<order><customer>acme</customer><item>bolt</item><item>nut</item><total>99</total></order>`
	evolvedAt := -1
	for i := 0; i < 20 && evolvedAt < 0; i++ {
		res := feed(src, drifted)
		if res.Evolved {
			evolvedAt = i + 1
			fmt.Printf("\ntrigger fired after %d drifted orders: %v\n", evolvedAt, res.Triggered)
		}
	}
	if evolvedAt < 0 {
		log.Fatal("trigger never fired")
	}
	fmt.Println("evolved DTD (first step):")
	fmt.Print(src.DTD("order").String())

	// An evolution built from the invalid population only (paper §3.2:
	// sequences are recorded for non-valid instances) may not yet cover
	// the drifted shape; the lifecycle self-corrects: the still-invalid
	// orders keep accumulating until the trigger fires again.
	if doc, _ := dtdevolve.ParseDocumentString(drifted); len(dtdevolve.Validate(doc, src.DTD("order"))) > 0 {
		fmt.Println("\ndrifted shape not yet covered; continuing the stream...")
		for i := 0; i < 30; i++ {
			if res := feed(src, drifted); res.Evolved {
				fmt.Printf("second evolution after %d more orders\n", i+1)
				break
			}
		}
	}
	if doc, _ := dtdevolve.ParseDocumentString(drifted); len(dtdevolve.Validate(doc, src.DTD("order"))) > 0 {
		log.Fatal("drifted shape still invalid after convergence")
	}
	fmt.Println("\nconverged DTD:")
	fmt.Print(src.DTD("order").String())

	// Adapt the stored era-1 orders to the evolved schema.
	opts := dtdevolve.DefaultAdaptOptions()
	opts.PlaceholderText = "0.00"
	opts.Similarity.TagSimilarity = th.SimilarityFunc()
	changed, err := src.AdaptStored("order", opts)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nadapted %d stored orders to the evolved schema\n", changed)
	invalid := 0
	for _, doc := range src.StoredDocs("order") {
		if len(dtdevolve.Validate(doc, src.DTD("order"))) > 0 {
			invalid++
		}
	}
	fmt.Printf("stored orders still invalid: %d\n", invalid)

	// Publish the evolved schema back as XSD.
	evolvedSchema := dtdevolve.DTDToSchema(src.DTD("order"))
	fmt.Println("\npublished schema:")
	fmt.Print(evolvedSchema.Summary())
}

func feed(src *dtdevolve.Source, s string) dtdevolve.AddResult {
	doc, err := dtdevolve.ParseDocumentString(s)
	if err != nil {
		log.Fatal(err)
	}
	res := src.Add(doc)
	if !res.Classified {
		fmt.Printf("unclassified (similarity %.3f): %s\n", res.Similarity, s)
	}
	if res.Evolved {
		fmt.Println("  (evolution ran)")
	}
	return res
}
