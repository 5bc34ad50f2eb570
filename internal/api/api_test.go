package api

import (
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"dtdevolve/internal/source"
	"dtdevolve/internal/wal"
)

func newServer(t *testing.T) (*httptest.Server, *source.Source) {
	t.Helper()
	cfg := source.DefaultConfig()
	cfg.MinDocs = 5
	src := source.New(cfg)
	srv := httptest.NewServer(New(src))
	t.Cleanup(srv.Close)
	return srv, src
}

func do(t *testing.T, method, url, body string) (*http.Response, map[string]any) {
	t.Helper()
	req, err := http.NewRequest(method, url, strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { resp.Body.Close() })
	var out map[string]any
	if strings.HasPrefix(resp.Header.Get("Content-Type"), "application/json") {
		if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
			t.Fatalf("decoding %s %s: %v", method, url, err)
		}
	}
	return resp, out
}

const articleDTD = `
<!ELEMENT article (title, body)>
<!ELEMENT title (#PCDATA)>
<!ELEMENT body (#PCDATA)>`

func TestRegisterAndFetchDTD(t *testing.T) {
	srv, _ := newServer(t)
	resp, out := do(t, "PUT", srv.URL+"/dtds/article?root=article", articleDTD)
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("status = %d (%v)", resp.StatusCode, out)
	}
	if out["elements"].(float64) != 3 {
		t.Errorf("elements = %v", out["elements"])
	}
	resp, _ = do(t, "GET", srv.URL+"/dtds/article", "")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("get status = %d", resp.StatusCode)
	}
	resp, out = do(t, "GET", srv.URL+"/dtds/missing", "")
	if resp.StatusCode != http.StatusNotFound {
		t.Errorf("missing DTD status = %d (%v)", resp.StatusCode, out)
	}
	_, out = do(t, "GET", srv.URL+"/dtds", "")
	dtds := out["dtds"].([]any)
	if len(dtds) != 1 || dtds[0] != "article" {
		t.Errorf("dtds = %v", dtds)
	}
}

func TestRegisterInvalidDTD(t *testing.T) {
	srv, _ := newServer(t)
	resp, out := do(t, "PUT", srv.URL+"/dtds/x", "<!ELEMENT broken")
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("status = %d (%v)", resp.StatusCode, out)
	}
}

func TestDocumentLifecycleOverHTTP(t *testing.T) {
	srv, src := newServer(t)
	do(t, "PUT", srv.URL+"/dtds/article?root=article", articleDTD)

	// A valid document classifies with similarity 1.
	resp, out := do(t, "POST", srv.URL+"/documents",
		`<article><title>t</title><body>b</body></article>`)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d", resp.StatusCode)
	}
	if out["classified"] != true || out["dtd"] != "article" || out["similarity"].(float64) != 1 {
		t.Errorf("response = %v", out)
	}

	// Drifted documents eventually report evolved=true.
	evolved := false
	for i := 0; i < 20 && !evolved; i++ {
		_, out = do(t, "POST", srv.URL+"/documents",
			`<article><title>t</title><author>a</author><body>b</body></article>`)
		if out["evolved"] == true {
			evolved = true
		}
	}
	if !evolved {
		t.Fatal("no evolution over HTTP stream")
	}
	if src.DTD("article").Elements["author"] == nil {
		t.Error("server-side DTD lacks author")
	}

	// Status reflects it.
	req, _ := http.NewRequest("GET", srv.URL+"/status", nil)
	resp2, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp2.Body.Close()
	var status struct {
		Degraded bool             `json:"degraded"`
		DTDs     []map[string]any `json:"dtds"`
	}
	if err := json.NewDecoder(resp2.Body).Decode(&status); err != nil {
		t.Fatal(err)
	}
	if len(status.DTDs) != 1 || status.DTDs[0]["Evolutions"].(float64) < 1 {
		t.Errorf("status = %v", status)
	}
	if status.Degraded {
		t.Error("healthy server reports degraded")
	}
}

func TestBadDocumentRejected(t *testing.T) {
	srv, _ := newServer(t)
	resp, out := do(t, "POST", srv.URL+"/documents", "<broken")
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("status = %d (%v)", resp.StatusCode, out)
	}
}

func TestRepositoryEndpoints(t *testing.T) {
	srv, _ := newServer(t)
	do(t, "PUT", srv.URL+"/dtds/article?root=article", articleDTD)
	do(t, "POST", srv.URL+"/documents", `<alien><x/></alien>`)
	_, out := do(t, "GET", srv.URL+"/repository", "")
	if out["size"].(float64) != 1 {
		t.Errorf("repository = %v", out)
	}
	_, out = do(t, "POST", srv.URL+"/repository/reclassify", "")
	if out["recovered"].(float64) != 0 {
		t.Errorf("recovered = %v", out)
	}
}

func TestForceEvolveEndpoint(t *testing.T) {
	srv, _ := newServer(t)
	do(t, "PUT", srv.URL+"/dtds/article?root=article", articleDTD)
	for i := 0; i < 3; i++ {
		do(t, "POST", srv.URL+"/documents",
			`<article><title>t</title><author>a</author><body>b</body></article>`)
	}
	resp, out := do(t, "POST", srv.URL+"/dtds/article/evolve", "")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d (%v)", resp.StatusCode, out)
	}
	changes := out["changes"].([]any)
	found := false
	for _, c := range changes {
		m := c.(map[string]any)
		if m["name"] == "article" && m["action"] == "rebuilt" {
			found = true
		}
	}
	if !found {
		t.Errorf("changes = %v", changes)
	}
	resp, _ = do(t, "POST", srv.URL+"/dtds/missing/evolve", "")
	if resp.StatusCode != http.StatusNotFound {
		t.Errorf("missing evolve status = %d", resp.StatusCode)
	}
}

// TestServedDTDsRegisterBack: after an evolution merges a text-bearing
// declaration, every DTD GET /dtds/{name} serves registers back through
// PUT under a new name, and the copy serves the same text.
func TestServedDTDsRegisterBack(t *testing.T) {
	cfg := source.DefaultConfig()
	cfg.AutoEvolve = false
	srv := httptest.NewServer(New(source.New(cfg)))
	t.Cleanup(srv.Close)
	if resp, out := do(t, "PUT", srv.URL+"/dtds/x?root=r", `<!ELEMENT r (a*)> <!ELEMENT a (#PCDATA)>`); resp.StatusCode != http.StatusCreated {
		t.Fatalf("register status = %d (%v)", resp.StatusCode, out)
	}
	for i := 0; i < 20; i++ {
		doc := `<r><a>t</a></r>`
		if i%2 == 0 {
			doc = `<r><a>t<b/></a><a>u</a></r>`
		}
		do(t, "POST", srv.URL+"/documents", doc)
	}
	if resp, out := do(t, "POST", srv.URL+"/dtds/x/evolve", ""); resp.StatusCode != http.StatusOK {
		t.Fatalf("evolve status = %d (%v)", resp.StatusCode, out)
	}
	get := func(name string) string {
		t.Helper()
		resp, _ := do(t, "GET", srv.URL+"/dtds/"+name, "")
		body, err := io.ReadAll(resp.Body)
		if err != nil || resp.StatusCode != http.StatusOK {
			t.Fatalf("GET /dtds/%s: status %d, %v", name, resp.StatusCode, err)
		}
		return string(body)
	}
	if text := get("x"); !strings.Contains(text, "<!ELEMENT a (#PCDATA | b)*>") {
		t.Fatalf("evolution did not merge a into mixed content:\n%s", text)
	}
	_, out := do(t, "GET", srv.URL+"/dtds", "")
	for _, name := range out["dtds"].([]any) {
		text := get(name.(string))
		copyName := name.(string) + "-copy"
		if resp, out := do(t, "PUT", srv.URL+"/dtds/"+copyName, text); resp.StatusCode != http.StatusCreated {
			t.Fatalf("PUT of served %s: status %d (%v)\n%s", name, resp.StatusCode, out, text)
		}
		if got := get(copyName); got != text {
			t.Errorf("%s serves\n%s\nafter registering\n%s", copyName, got, text)
		}
	}
}

func TestTriggerEndpoints(t *testing.T) {
	srv, _ := newServer(t)
	do(t, "PUT", srv.URL+"/dtds/article?root=article", articleDTD)
	resp, out := do(t, "PUT", srv.URL+"/triggers",
		"on article when docs >= 2 and check_ratio > 0.1 do evolve")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d (%v)", resp.StatusCode, out)
	}
	_, out = do(t, "GET", srv.URL+"/triggers", "")
	if rules := out["rules"].([]any); len(rules) != 1 {
		t.Errorf("rules = %v", rules)
	}
	resp, _ = do(t, "PUT", srv.URL+"/triggers", "on broken")
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("bad rule status = %d", resp.StatusCode)
	}
	// The installed rule drives evolution through document POSTs.
	evolved := false
	for i := 0; i < 10 && !evolved; i++ {
		_, out = do(t, "POST", srv.URL+"/documents",
			`<article><title>t</title><author>a</author><body>b</body></article>`)
		if trig, ok := out["triggered"].([]any); ok && len(trig) > 0 {
			evolved = true
		}
	}
	if !evolved {
		t.Error("trigger rule never fired over HTTP")
	}
}

func TestSnapshotEndpoint(t *testing.T) {
	srv, _ := newServer(t)
	do(t, "PUT", srv.URL+"/dtds/article?root=article", articleDTD)
	do(t, "POST", srv.URL+"/documents", `<article><title>t</title><body>b</body></article>`)
	resp, err := http.Get(srv.URL + "/snapshot")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var snap map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&snap); err != nil {
		t.Fatal(err)
	}
	if _, ok := snap["dtds"]; !ok {
		t.Errorf("snapshot missing dtds: %v", snap)
	}
}

// TestMetricsGroupCommitFields pins the GET /metrics fields added with the
// group-commit pipeline: the group-size distribution, the commit-queue
// depth gauge, and the amortized fsync cost per document.
func TestMetricsGroupCommitFields(t *testing.T) {
	cfg := source.DefaultConfig()
	src := source.New(cfg)
	w, err := wal.Open(t.TempDir(), wal.Options{Sync: wal.SyncAlways})
	if err != nil {
		t.Fatal(err)
	}
	src.AttachWAL(w)
	t.Cleanup(func() { src.CloseWAL() })
	srv := httptest.NewServer(New(src))
	t.Cleanup(srv.Close)

	do(t, "PUT", srv.URL+"/dtds/article?root=article", articleDTD)
	batch := `{"documents": [
		"<article><title>t</title><body>b</body></article>",
		"<article><title>u</title><body>c</body></article>",
		"<article><title>v</title><body>d</body></article>",
		"<article><title>w</title><body>e</body></article>"
	]}`
	if resp, out := do(t, "POST", srv.URL+"/documents/batch", batch); resp.StatusCode != http.StatusOK {
		t.Fatalf("batch status = %d (%v)", resp.StatusCode, out)
	}

	resp, m := do(t, "GET", srv.URL+"/metrics", "")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("metrics status = %d", resp.StatusCode)
	}
	// The queue depth gauge is always present (0 when idle).
	if _, ok := m["commit_queue_depth"]; !ok {
		t.Errorf("metrics missing commit_queue_depth: %v", m)
	}
	// One four-document batch through the queue is one group of four.
	for field, want := range map[string]float64{
		"wal_groups":          1,
		"wal_group_size_min":  4,
		"wal_group_size_mean": 4,
		"wal_group_size_max":  4,
	} {
		if got, ok := m[field].(float64); !ok || got != want {
			t.Errorf("metrics[%q] = %v, want %v", field, m[field], want)
		}
	}
	// Two fsyncs (dtd registration + the group) over four documents.
	if got, ok := m["fsyncs_per_doc"].(float64); !ok || got >= 1 {
		t.Errorf("metrics[fsyncs_per_doc] = %v, want < 1 (group amortization)", m["fsyncs_per_doc"])
	}
}
