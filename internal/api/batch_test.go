package api

import (
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"dtdevolve/internal/source"
)

func TestBatchIngest(t *testing.T) {
	srv, src := newServer(t)
	if resp, out := do(t, "PUT", srv.URL+"/dtds/article?root=article", articleDTD); resp.StatusCode != http.StatusCreated {
		t.Fatalf("register status = %d (%v)", resp.StatusCode, out)
	}
	body, _ := json.Marshal(map[string]any{"documents": []string{
		`<article><title>t</title><body>b</body></article>`,
		`<article><title>u</title><body>c</body></article>`,
		`<invoice><total>3</total></invoice>`,
	}})
	resp, out := do(t, "POST", srv.URL+"/documents/batch", string(body))
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("batch status = %d (%v)", resp.StatusCode, out)
	}
	if out["classified"].(float64) != 2 || out["repository"].(float64) != 1 {
		t.Errorf("batch summary = %v", out)
	}
	results := out["results"].([]any)
	if len(results) != 3 {
		t.Fatalf("results = %v", results)
	}
	first := results[0].(map[string]any)
	if first["classified"] != true || first["dtd"] != "article" || first["similarity"].(float64) != 1 {
		t.Errorf("first result = %v", first)
	}
	if src.RepositorySize() != 1 {
		t.Errorf("repository = %d, want 1", src.RepositorySize())
	}
}

func TestBatchIngestBadRequests(t *testing.T) {
	srv, _ := newServer(t)
	for _, body := range []string{
		`{not json`,
		`{"documents": []}`,
		`{"documents": ["<broken"]}`,
	} {
		resp, out := do(t, "POST", srv.URL+"/documents/batch", body)
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("body %q: status = %d (%v), want 400", body, resp.StatusCode, out)
		}
	}
}

func TestMetricsRoute(t *testing.T) {
	srv, _ := newServer(t)
	do(t, "PUT", srv.URL+"/dtds/article?root=article", articleDTD)
	do(t, "POST", srv.URL+"/documents", `<article><title>t</title><body>b</body></article>`)
	do(t, "POST", srv.URL+"/documents", `<invoice><total>3</total></invoice>`)
	resp, out := do(t, "GET", srv.URL+"/metrics", "")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("metrics status = %d", resp.StatusCode)
	}
	if out["added"].(float64) != 2 || out["classified"].(float64) != 1 || out["repository"].(float64) != 1 {
		t.Errorf("metrics = %v", out)
	}
	if out["classify_ns_total"].(float64) <= 0 {
		t.Errorf("no classify latency recorded: %v", out)
	}
}

// TestReadBodyTooLarge checks that only an over-limit body maps to 413.
func TestReadBodyTooLarge(t *testing.T) {
	old := maxBodyBytes
	maxBodyBytes = 64
	defer func() { maxBodyBytes = old }()
	srv, _ := newServer(t)
	resp, out := do(t, "POST", srv.URL+"/documents", strings.Repeat("<a>", 100))
	if resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Errorf("status = %d (%v), want 413", resp.StatusCode, out)
	}
}

// TestEntityExpansionTooLarge checks that a buffered document whose
// declared entities expand past the body budget is refused with 413, on
// POST /documents and /documents/batch alike: 381 bytes whose entities
// nest six levels deep, ten references each, expand to 10 MB of text.
func TestEntityExpansionTooLarge(t *testing.T) {
	old := maxBodyBytes
	maxBodyBytes = 2048
	defer func() { maxBodyBytes = old }()
	var b strings.Builder
	b.WriteString(`<!DOCTYPE a [<!ENTITY e0 "xxxxxxxxxx">`)
	for i := 1; i <= 6; i++ {
		fmt.Fprintf(&b, `<!ENTITY e%d "%s">`, i, strings.Repeat(fmt.Sprintf("&e%d;", i-1), 10))
	}
	b.WriteString(`]><a>&e6;</a>`)
	bomb := b.String()
	srv, _ := newServer(t)
	resp, out := do(t, "POST", srv.URL+"/documents", bomb)
	if resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Errorf("POST /documents: status = %d (%v), want 413", resp.StatusCode, out)
	}
	batch, err := json.Marshal(map[string][]string{"documents": {bomb}})
	if err != nil {
		t.Fatal(err)
	}
	resp, out = do(t, "POST", srv.URL+"/documents/batch", string(batch))
	if resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Errorf("POST /documents/batch: status = %d (%v), want 413", resp.StatusCode, out)
	}
}

// errReader fails mid-body: the request is broken, not too large, so the
// handler must answer 400, not 413.
type errReader struct{}

func (errReader) Read([]byte) (int, error) { return 0, errors.New("boom: connection reset") }

func TestReadBodyFailureIsBadRequest(t *testing.T) {
	h := New(source.New(source.DefaultConfig()))
	req := httptest.NewRequest("POST", "/documents", errReader{})
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	if rec.Code != http.StatusBadRequest {
		t.Errorf("status = %d (%s), want 400", rec.Code, rec.Body)
	}
}
