package intern

import (
	"fmt"
	"sync"
	"testing"

	"dtdevolve/internal/dtd"
	"dtdevolve/internal/xmltree"
)

func TestInternBasics(t *testing.T) {
	tab := NewTable()
	if tab.Len() != 0 {
		t.Fatalf("fresh table has Len %d", tab.Len())
	}
	a := tab.Intern("alpha")
	b := tab.Intern("beta")
	if a == None || b == None {
		t.Fatalf("Intern returned None for non-empty names: %d, %d", a, b)
	}
	if a == b {
		t.Fatalf("distinct names share ID %d", a)
	}
	if got := tab.Intern("alpha"); got != a {
		t.Errorf("re-interning alpha: got %d, want %d", got, a)
	}
	if got := tab.ID("alpha"); got != a {
		t.Errorf("ID(alpha) = %d, want %d", got, a)
	}
	if got := tab.ID("missing"); got != None {
		t.Errorf("ID(missing) = %d, want None", got)
	}
	if got := tab.Name(a); got != "alpha" {
		t.Errorf("Name(%d) = %q, want alpha", a, got)
	}
	if got := tab.Name(None); got != "" {
		t.Errorf("Name(None) = %q, want empty", got)
	}
	if got := tab.Name(99); got != "" {
		t.Errorf("Name(out of range) = %q, want empty", got)
	}
	if !tab.NameIs(a, "alpha") || tab.NameIs(a, "beta") || tab.NameIs(None, "") {
		t.Error("NameIs misbehaves")
	}
	if tab.Len() != 2 {
		t.Errorf("Len = %d, want 2", tab.Len())
	}
}

func TestInternEmptyStringIsNone(t *testing.T) {
	tab := NewTable()
	if got := tab.Intern(""); got != None {
		t.Fatalf("Intern(\"\") = %d, want None", got)
	}
	if tab.Len() != 0 {
		t.Fatalf("interning the empty string grew the table to %d", tab.Len())
	}
}

func TestNamesRoundTrip(t *testing.T) {
	tab := NewTable()
	want := []string{"x", "y", "z"}
	for _, n := range want {
		tab.Intern(n)
	}
	names := tab.Names()
	if len(names) != len(want) {
		t.Fatalf("Names() = %v", names)
	}
	for i, n := range want {
		if names[i] != n {
			t.Errorf("Names()[%d] = %q, want %q", i, names[i], n)
		}
	}
}

// TestInternConcurrent hammers one table from many goroutines interning an
// overlapping name set, then checks the table is consistent: every name has
// exactly one ID and every ID maps back to its name. Run with -race.
func TestInternConcurrent(t *testing.T) {
	tab := NewTable()
	const goroutines = 8
	const names = 200
	ids := make([][]int32, goroutines)
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			ids[g] = make([]int32, names)
			for i := 0; i < names; i++ {
				// Overlapping sets: every goroutine interns every name,
				// in a goroutine-dependent order.
				ids[g][i] = tab.Intern(fmt.Sprintf("name%d", (i+g*7)%names))
			}
		}(g)
	}
	wg.Wait()
	if tab.Len() != names {
		t.Fatalf("Len = %d, want %d", tab.Len(), names)
	}
	for g := 0; g < goroutines; g++ {
		for i := 0; i < names; i++ {
			name := fmt.Sprintf("name%d", (i+g*7)%names)
			if got := tab.ID(name); got != ids[g][i] {
				t.Fatalf("goroutine %d saw %s=%d, table says %d", g, name, ids[g][i], got)
			}
			if got := tab.Name(ids[g][i]); got != name {
				t.Fatalf("Name(%d) = %q, want %q", ids[g][i], got, name)
			}
		}
	}
}

func TestInternAll(t *testing.T) {
	tab := NewTable()
	pre := tab.Intern("b")
	tab.InternAll([]string{"a", "b", "", "c", "a"})
	if tab.Len() != 3 {
		t.Fatalf("Len = %d, want 3 (dedup, skip empty)", tab.Len())
	}
	if got := tab.ID("b"); got != pre {
		t.Errorf("InternAll reassigned existing ID: %d vs %d", got, pre)
	}
	for _, n := range []string{"a", "c"} {
		id := tab.ID(n)
		if id == None || tab.Name(id) != n {
			t.Errorf("%q: ID %d, Name %q", n, id, tab.Name(id))
		}
	}
	tab.InternAll([]string{"a", "b", "c"}) // all present: must be a no-op
	if tab.Len() != 3 {
		t.Errorf("idempotent InternAll grew table to %d", tab.Len())
	}
}

func TestInternDTDCoversDeclaredAndReferencedLabels(t *testing.T) {
	d := dtd.MustParse(`
<!ELEMENT doc (head, (para | note)*)>
<!ELEMENT head (#PCDATA)>
<!ELEMENT para (#PCDATA | em)*>`)
	tab := NewTable()
	InternDTD(tab, d)
	// Declared elements, plus labels only referenced in models (note, em).
	for _, name := range []string{"doc", "head", "para", "note", "em"} {
		if tab.ID(name) == None {
			t.Errorf("label %q not interned", name)
		}
	}
}

func TestInternDocumentStampsEveryElement(t *testing.T) {
	doc, err := xmltree.ParseString(`<doc><head>t</head><para>x<em>y</em></para></doc>`)
	if err != nil {
		t.Fatal(err)
	}
	tab := NewTable()
	InternDocument(tab, doc.Root)
	var check func(n *xmltree.Node)
	check = func(n *xmltree.Node) {
		if n.Kind != xmltree.Element {
			return
		}
		id := n.LabelID()
		if id == None {
			t.Errorf("element <%s> not stamped", n.Name)
		} else if !tab.NameIs(id, n.Name) {
			t.Errorf("element <%s> stamped with foreign ID %d (%q)", n.Name, id, tab.Name(id))
		}
		for _, c := range n.Children {
			check(c)
		}
	}
	check(doc.Root)
}

// TestViewSnapshot pins the semantics candidate pruning relies on: a View
// resolves exactly the symbols present when it was taken, and later
// interning neither extends nor invalidates it.
func TestViewSnapshot(t *testing.T) {
	tab := NewTable()
	a := tab.Intern("a")
	v := tab.View()
	if v.Len() != 1 || v.ID("a") != a || !v.NameIs(a, "a") || v.Name(a) != "a" {
		t.Fatalf("view does not reflect the table at snapshot time")
	}
	b := tab.Intern("b")
	if v.ID("b") != None {
		t.Errorf("stale view resolves a later symbol")
	}
	if v.NameIs(b, "b") || v.Name(b) != "" {
		t.Errorf("stale view accepts a later ID")
	}
	if got := tab.View().ID("b"); got != b {
		t.Errorf("fresh view misses b: %d", got)
	}
	if v.ID("") != None || v.NameIs(None, "") {
		t.Errorf("view mishandles the empty name or None")
	}
}

// TestInternDocumentBatchesFreshTags checks that a document of entirely
// novel tags gets dense IDs in document order of first sight, exactly what
// a single InternAll of its tags yields: the order replay assigns them in.
func TestInternDocumentBatchesFreshTags(t *testing.T) {
	doc, err := xmltree.ParseString(`<r><x1/><x2><x3/></x2><x1/></r>`)
	if err != nil {
		t.Fatal(err)
	}
	tab := NewTable()
	base := int32(tab.Intern("pre"))
	InternDocument(tab, doc.Root)
	// Document order of first sight: r, x1, x2, x3.
	for i, name := range []string{"r", "x1", "x2", "x3"} {
		if got := tab.ID(name); got != base+1+int32(i) {
			t.Errorf("ID(%s) = %d, want %d (dense, document order)", name, got, base+1+int32(i))
		}
	}
	if tab.Len() != 5 {
		t.Errorf("Len = %d, want 5", tab.Len())
	}
	// Every element is stamped with its snapshot ID.
	doc.Root.Walk(func(n *xmltree.Node, _ int) bool {
		if n.Kind == xmltree.Element && !tab.NameIs(n.LabelID(), n.Name) {
			t.Errorf("<%s> stamped %d", n.Name, n.LabelID())
		}
		return true
	})
	// A second pass finds nothing fresh and restamps identically.
	InternDocument(tab, doc.Root)
	if tab.Len() != 5 {
		t.Errorf("second InternDocument grew the table to %d", tab.Len())
	}
}

// TestInternDocumentRestampsAfterForeignStamp models a document migrating
// between sources: IDs from the old table must be replaced, not trusted.
func TestInternDocumentRestampsAfterForeignStamp(t *testing.T) {
	doc, err := xmltree.ParseString(`<b><a/></b>`)
	if err != nil {
		t.Fatal(err)
	}
	old := NewTable()
	old.Intern("padding") // skew the ID space
	InternDocument(old, doc.Root)
	fresh := NewTable()
	InternDocument(fresh, doc.Root)
	if id := doc.Root.LabelID(); !fresh.NameIs(id, "b") {
		t.Errorf("root not restamped: ID %d in fresh table is %q", id, fresh.Name(id))
	}
}

// TestInternConcurrentMixed runs writers through Intern, an Overlay's
// names and InternAll on one overlapping name set while readers take
// views. IDs must
// come out dense, every name must round-trip, and a view must never
// resolve a symbol interned after it was taken. Run with -race.
func TestInternConcurrentMixed(t *testing.T) {
	tab := NewTable()
	const writers, readers, names = 6, 2, 3000
	name := func(i int) string { return fmt.Sprintf("n%d", i) }
	var wg sync.WaitGroup
	for g := 0; g < writers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			batch := make([]string, 0, 8)
			for i := 0; i < names; i++ {
				n := name((i*7 + g*131) % names) // every writer sees every name
				switch (i + g) % 3 {
				case 0:
					if id := tab.Intern(n); tab.Name(id) != n {
						t.Errorf("Intern(%q) = %d, which names %q", n, id, tab.Name(id))
						return
					}
				case 1:
					var ov Overlay
					ov.Reset(tab.View())
					if id, s := ov.InternBytes([]byte(n)); s != n || len(ov.Names()) == 0 && tab.Name(id) != n {
						t.Errorf("Overlay.InternBytes(%q) = %d, %q", n, id, s)
						return
					}
					tab.InternAll(ov.Names())
				default:
					if batch = append(batch, n); len(batch) == cap(batch) {
						tab.InternAll(batch)
						batch = batch[:0]
					}
				}
			}
			tab.InternAll(batch)
		}(g)
	}
	stop := make(chan struct{})
	var rg sync.WaitGroup
	for r := 0; r < readers; r++ {
		rg.Add(1)
		go func() {
			defer rg.Done()
			for {
				v := tab.View()
				for id := int32(1); id <= int32(v.Len()); id++ {
					if n := v.Name(id); n == "" || v.ID(n) != id || !v.NameIs(id, n) {
						t.Errorf("view of %d symbols: ID %d names %q, which resolves to %d", v.Len(), id, n, v.ID(n))
						return
					}
				}
				later := tab.View()
				for id := int32(v.Len() + 1); id <= int32(later.Len()); id++ {
					n := later.Name(id)
					if v.ID(n) != None || v.NameIs(id, n) || v.Name(id) != "" {
						t.Errorf("view of %d symbols resolves %q, interned later as %d", v.Len(), n, id)
						return
					}
				}
				select {
				case <-stop:
					return
				default:
				}
			}
		}()
	}
	wg.Wait()
	close(stop)
	rg.Wait()
	if tab.Len() != names {
		t.Fatalf("Len = %d, want %d", tab.Len(), names)
	}
	seen := make(map[string]bool, names)
	for i, n := range tab.Names() {
		if id := tab.ID(n); id != int32(i+1) || seen[n] {
			t.Fatalf("Names()[%d] = %q: ID %d, repeated %v", i, n, id, seen[n])
		}
		seen[n] = true
	}
	for i := 0; i < names; i++ {
		if !seen[name(i)] {
			t.Fatalf("%q was never interned", name(i))
		}
	}
}

// TestInternGrowthKeepsIDs interns enough symbols to double the index
// several times, through single Interns and one large InternAll, and checks
// that every ID still resolves both ways and that views taken before the
// growth keep their contents.
func TestInternGrowthKeepsIDs(t *testing.T) {
	tab := NewTable()
	var views []View
	var batch []string
	for i := 0; i < 5000; i++ {
		n := fmt.Sprintf("s%d", i)
		if i < 2500 {
			if id := tab.Intern(n); id != int32(i+1) {
				t.Fatalf("Intern(%q) = %d, want %d", n, id, i+1)
			}
		} else {
			batch = append(batch, n)
		}
		if i%500 == 0 {
			views = append(views, tab.View())
		}
	}
	tab.InternAll(batch)
	for i := 0; i < 5000; i++ {
		n := fmt.Sprintf("s%d", i)
		if id := tab.ID(n); id != int32(i+1) || tab.Name(id) != n {
			t.Fatalf("%q: ID %d, Name %q", n, id, tab.Name(id))
		}
	}
	for _, v := range views {
		for id := int32(1); id <= int32(v.Len()+1); id++ {
			n := fmt.Sprintf("s%d", id-1)
			if want := id <= int32(v.Len()); (v.ID(n) == id) != want {
				t.Fatalf("view of %d symbols: ID(%q) = %d", v.Len(), n, v.ID(n))
			}
		}
	}
}

// TestLookupAllocs pins the found paths at 0 allocs: the streaming parser
// resolves every element name through an Overlay, and signatures resolve
// every tag through a View.
func TestLookupAllocs(t *testing.T) {
	tab := NewTable()
	for i := 0; i < 1000; i++ {
		tab.Intern(fmt.Sprintf("e%d", i))
	}
	b := []byte("e500")
	v := tab.View()
	var ov Overlay
	ov.Reset(v)
	allocs := testing.AllocsPerRun(100, func() {
		if id, _ := ov.InternBytes(b); id == None {
			t.Fatal("e500 not found")
		}
		if tab.ID("e7") == None || v.ID("e7") == None || tab.Intern("e9") == None {
			t.Fatal("lookup missed")
		}
	})
	if allocs != 0 {
		t.Errorf("found-path lookups allocate %.1f objects/op, want 0", allocs)
	}
}

// TestOverlayProvisionalIDs pins the overlay's contract: known names keep
// their IDs, new names get view length + 1 + their rank of first sighting,
// a repeat sighting returns the same ID and string, and interning Names
// into the unchanged table assigns exactly the provisional IDs, so none
// moved. Once other names are interned first, Commit maps each provisional
// ID to the one the table gave its name.
func TestOverlayProvisionalIDs(t *testing.T) {
	tab := NewTable()
	tab.InternAll([]string{"a", "b"})
	var ov Overlay
	ov.Reset(tab.View())
	for _, c := range []struct {
		name string
		id   int32
	}{{"b", 2}, {"x", 3}, {"a", 1}, {"y", 4}, {"x", 3}, {"", None}} {
		if id, s := ov.InternBytes([]byte(c.name)); id != c.id || s != c.name {
			t.Errorf("InternBytes(%q) = %d, %q; want %d", c.name, id, s, c.id)
		}
	}
	if got := fmt.Sprint(ov.Names()); got != "[x y]" {
		t.Errorf("Names = %s, want [x y]", got)
	}
	if tab.Len() != 2 {
		t.Errorf("the overlay wrote to the table: %d symbols", tab.Len())
	}
	if m := ov.Commit(tab); m != nil {
		t.Errorf("Commit into the unchanged table moved %v, want nil", m)
	}
	if tab.ID("x") != 3 || tab.ID("y") != 4 {
		t.Errorf("interned x, y as %d, %d; want the provisional 3, 4", tab.ID("x"), tab.ID("y"))
	}

	// The document brings z and v; another writer interns v and w before
	// it commits.
	ov.Reset(tab.View())
	for _, n := range []string{"z", "y", "a", "v"} {
		ov.InternBytes([]byte(n))
	}
	if got := fmt.Sprint(ov.Names()); got != "[z v]" {
		t.Fatalf("Names = %s, want [z v]", got)
	}
	tab.InternAll([]string{"v", "w"})
	// Provisional z = 5, v = 6; the table holds v = 5, w = 6, z = 7.
	if got, want := fmt.Sprint(ov.Commit(tab)), fmt.Sprint(map[int32]int32{5: 7, 6: 5}); got != want {
		t.Errorf("Commit moved %s, want %s", got, want)
	}
}

func benchTable() (*Table, []string) {
	tab := NewTable()
	names := make([]string, 7000)
	for i := range names {
		names[i] = fmt.Sprintf("s%03d_e%d", i/7, i%7)
	}
	tab.InternAll(names)
	return tab, names
}

// BenchmarkViewID is the found-path lookup classification runs per tag.
func BenchmarkViewID(b *testing.B) {
	tab, names := benchTable()
	v := tab.View()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if v.ID(names[i%len(names)]) == None {
			b.Fatal("miss")
		}
	}
}

// BenchmarkInternBytesFound is the found-path lookup the streaming parser
// runs per element name, through an Overlay.
func BenchmarkInternBytesFound(b *testing.B) {
	tab, names := benchTable()
	raw := make([][]byte, len(names))
	for i, n := range names {
		raw[i] = []byte(n)
	}
	var ov Overlay
	ov.Reset(tab.View())
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if id, _ := ov.InternBytes(raw[i%len(raw)]); id == None {
			b.Fatal("miss")
		}
	}
}
