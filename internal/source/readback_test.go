package source

import (
	"errors"
	"os"
	"path/filepath"
	"testing"

	"dtdevolve/internal/dtd"
	"dtdevolve/internal/similarity"
	"dtdevolve/internal/wal"
)

// TestAddDTDRefusesWhatItsTextDoesNotSay: a DTD built in Go whose text
// does not parse back to it is refused with ErrDTDRoundTrip. Nothing is
// journaled or interned, and the WAL recovers to the live snapshot.
func TestAddDTDRefusesWhatItsTextDoesNotSay(t *testing.T) {
	base := func() *dtd.DTD {
		d := dtd.MustParse(`<!ELEMENT r (a, b)> <!ELEMENT a EMPTY> <!ELEMENT b EMPTY>`)
		d.Name = "r"
		return d
	}
	for _, tc := range []struct {
		name  string
		build func(d *dtd.DTD)
	}{
		{"nil model", func(d *dtd.DTD) { d.Elements["a"] = nil }},
		{"nested ANY", func(d *dtd.DTD) { d.Elements["r"] = dtd.NewSeq(dtd.NewName("fresh"), dtd.NewAny()) }},
		{"nested EMPTY", func(d *dtd.DTD) { d.Elements["r"] = dtd.NewChoice(dtd.NewName("a"), dtd.NewEmpty()) }},
		{"element outside Order", func(d *dtd.DTD) { d.Elements["fresh"] = dtd.NewEmpty() }},
		{"element listed twice", func(d *dtd.DTD) { d.Order = append(d.Order, "a") }},
		{"default holding both quotes", func(d *dtd.DTD) {
			d.Attlists["r"] = []dtd.AttDef{{Name: "k", Type: "CDATA", Default: `say "it's"`}}
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			w, err := wal.Open(dir, wal.Options{Sync: wal.SyncOff})
			if err != nil {
				t.Fatal(err)
			}
			live := New(testConfig())
			live.AttachWAL(w)
			if err := live.AddDTD("good", base()); err != nil {
				t.Fatal(err)
			}
			bad := base()
			tc.build(bad)
			if err := live.AddDTD("bad", bad); !errors.Is(err, ErrDTDRoundTrip) {
				t.Fatalf("AddDTD = %v, want ErrDTDRoundTrip", err)
			}
			if live.DTD("bad") != nil {
				t.Error("refused DTD registered")
			}
			want := mustSnapshot(t, live)
			if err := live.CloseWAL(); err != nil {
				t.Fatal(err)
			}
			if n := journalRecordCount(t, dir); n != 1 {
				t.Errorf("%d records journaled, want the one registration", n)
			}
			if got := mustSnapshot(t, recoverFrom(t, dir)); got != want {
				t.Errorf("recovered snapshot differs from the live one\nlive:      %s\nrecovered: %s", want, got)
			}
		})
	}
}

// TestAddDTDRegistersItsTextsParse: the source holds the parse of the
// DTD's text, not the caller's DTD, so changing the DTD afterwards changes
// nothing the source reads.
func TestAddDTDRegistersItsTextsParse(t *testing.T) {
	s := New(DefaultConfig())
	d := articleDTD()
	if err := s.AddDTD("article", d); err != nil {
		t.Fatal(err)
	}
	before := s.Status()[0].Model
	d.Elements["title"] = dtd.NewEmpty()
	d.Declare("author", dtd.NewPCDATA())
	if got := s.DTD("article"); !got.Equal(articleDTD()) {
		t.Errorf("registered DTD changed with the caller's:\n%s", got)
	}
	if got := s.Status()[0].Model; got != before {
		t.Errorf("status text changed with the caller's DTD:\n%s", got)
	}
	if res := s.Add(parseDoc(t, `<article><title>t</title><body>b</body></article>`)); res.Similarity != 1 {
		t.Errorf("a valid document scored %v", res.Similarity)
	}
}

// TestEvolvedTextBearingMergeRecovers: a misc-window merge of a
// text-bearing declaration evolves a = (#PCDATA) into (#PCDATA | b)*,
// which accepts what a did and the shape that drove the merge, and whose
// text a checkpoint restores: the recovered snapshot equals the live one.
func TestEvolvedTextBearingMergeRecovers(t *testing.T) {
	dir := t.TempDir()
	ckpt := filepath.Join(t.TempDir(), "checkpoint.json")
	w, err := wal.Open(dir, wal.Options{Sync: wal.SyncOff})
	if err != nil {
		t.Fatal(err)
	}
	cfg := testConfig()
	cfg.AutoEvolve = false
	live := New(cfg)
	live.AttachWAL(w)
	d := dtd.MustParse(`<!ELEMENT r (a*)> <!ELEMENT a (#PCDATA)>`)
	d.Name = "r"
	if err := live.AddDTD("x", d); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 20; i++ {
		src := `<r><a>t</a></r>`
		if i%2 == 0 {
			src = `<r><a>t<b/></a><a>u</a></r>`
		}
		live.Add(parseDoc(t, src))
	}
	if _, _, err := live.EvolveNow("x"); err != nil {
		t.Fatal(err)
	}
	if got, want := live.DTD("x").Elements["a"].String(), "(#PCDATA | b)*"; got != want {
		t.Errorf("evolved a = %s, want %s", got, want)
	}
	evolved := live.DTD("x")
	for _, src := range []string{`<r><a>t</a></r>`, `<r><a>t<b/></a></r>`} {
		if sim := similarity.Global(parseDoc(t, src).Root, evolved); sim != 1 {
			t.Errorf("%s scores %v after the merge, want 1", src, sim)
		}
	}
	if err := live.Checkpoint(ckpt); err != nil {
		t.Fatal(err)
	}
	want := mustSnapshot(t, live)
	if err := live.CloseWAL(); err != nil {
		t.Fatal(err)
	}
	snap, err := os.ReadFile(ckpt)
	if err != nil {
		t.Fatal(err)
	}
	recovered, _, err := Recover(cfg, snap, dir, wal.Options{Sync: wal.SyncOff})
	if err != nil {
		t.Fatal(err)
	}
	defer recovered.CloseWAL()
	if got := mustSnapshot(t, recovered); got != want {
		t.Errorf("recovered snapshot differs from the live one\nlive:      %s\nrecovered: %s", want, got)
	}
}
