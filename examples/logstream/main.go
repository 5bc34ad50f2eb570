// Logstream demonstrates operating the source as a long-lived service: a
// stream of structured log events flows in, the source checkpoints its
// state (DTD set, extended-DTD statistics, repository) to JSON, a "restart"
// restores from the snapshot, and evolution continues seamlessly across
// the restart.
package main

import (
	"fmt"
	"log"
	"strings"

	"dtdevolve"
)

func main() {
	d, err := dtdevolve.ParseDTDString(`
<!ELEMENT event (ts, level, msg)>
<!ELEMENT ts (#PCDATA)>
<!ELEMENT level (#PCDATA)>
<!ELEMENT msg (#PCDATA)>`)
	if err != nil {
		log.Fatal(err)
	}
	d.Name = "event"

	cfg := dtdevolve.DefaultConfig()
	cfg.MinDocs = 12
	src := dtdevolve.NewSource(cfg)
	if err := src.AddDTD("event", d); err != nil {
		log.Fatal(err)
	}

	// New-style events carry a trace id the schema does not know about.
	evt := `<event><ts>2002-06-01T10:00</ts><level>info</level><msg>ok</msg><trace>abc</trace></event>`
	for i := 0; i < 8; i++ {
		feed(src, evt)
	}

	// Checkpoint mid-stream, before the evolution threshold is reached.
	snapshot, err := src.Snapshot()
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("checkpoint after 8 events: %d bytes\n", len(snapshot))

	// Simulated restart: all in-memory state is discarded and restored.
	restored, err := dtdevolve.RestoreSource(cfg, snapshot)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("restarted from checkpoint")

	// The stream continues on the restored source; the recorded statistics
	// survived the restart, so evolution triggers exactly as if the
	// process had never stopped.
	evolved := false
	for i := 0; i < 10 && !evolved; i++ {
		res := feed(restored, evt)
		if res.Evolved {
			evolved = true
			fmt.Printf("evolution triggered %d events after restart\n", i+1)
		}
	}
	if !evolved {
		log.Fatal("evolution did not trigger after restart")
	}
	fmt.Println("\nevolved event DTD:")
	fmt.Print(restored.DTD("event").String())

	doc, _ := dtdevolve.ParseDocumentString(evt)
	if vs := dtdevolve.Validate(doc, restored.DTD("event")); len(vs) != 0 {
		log.Fatalf("new-style event still invalid: %v", vs)
	}
	fmt.Println("\nnew-style events now valid")

	// A high-volume tail of the stream arrives through the one-pass
	// streaming path (DESIGN.md §15): same classification, same recorded
	// statistics, but the document is never materialized as a tree —
	// memory stays bounded by the open-element path however large the
	// event. Over HTTP this is POST /documents?stream=1.
	res, err := restored.AddStream(strings.NewReader(evt))
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nstreamed event classified %q at similarity %.2f (one pass, no tree)\n",
		res.DTDName, res.Similarity)
}

func feed(src *dtdevolve.Source, s string) dtdevolve.AddResult {
	doc, err := dtdevolve.ParseDocumentString(s)
	if err != nil {
		log.Fatal(err)
	}
	return src.Add(doc)
}
