package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func writeFile(t *testing.T, dir, name, text string) string {
	t.Helper()
	path := filepath.Join(dir, name)
	if err := os.WriteFile(path, []byte(text), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

// TestRunRejectsDecayOutsideUnitInterval: a decay outside (0, 1] exits with
// status 2 and the usage text before any document is read (the document
// named here does not exist, and reading it would report so).
func TestRunRejectsDecayOutsideUnitInterval(t *testing.T) {
	missing := filepath.Join(t.TempDir(), "missing.xml")
	for _, decay := range []string{"0", "-1", "-0.5", "1.0001", "2", "NaN", "+Inf"} {
		var stdout, stderr bytes.Buffer
		if code := run([]string{"-decay", decay, missing}, &stdout, &stderr); code != 2 {
			t.Errorf("-decay %s: exit status %d, want 2", decay, code)
		}
		if !strings.Contains(stderr.String(), "usage: dtdcheck") {
			t.Errorf("-decay %s: no usage text in %q", decay, stderr.String())
		}
		if strings.Contains(stderr.String(), "missing.xml") {
			t.Errorf("-decay %s: read a document before rejecting the flag: %q", decay, stderr.String())
		}
	}
}

// TestRunAcceptsDecayInUnitInterval scores a document at the edges of the
// range, including the shape that never returned at a negative decay.
func TestRunAcceptsDecayInUnitInterval(t *testing.T) {
	dir := t.TempDir()
	schema := writeFile(t, dir, "s.dtd", `<!ELEMENT root (a*)> <!ELEMENT a (x, y)> <!ELEMENT x EMPTY> <!ELEMENT y EMPTY>`)
	valid := writeFile(t, dir, "valid.xml", `<root><a><x/><y/></a></root>`)
	stray := writeFile(t, dir, "stray.xml", `<root><b/></root>`)
	for _, decay := range []string{"1", "0.5", "0.001"} {
		var stdout, stderr bytes.Buffer
		if code := run([]string{"-dtd", schema, "-decay", decay, valid}, &stdout, &stderr); code != 0 {
			t.Errorf("-decay %s: exit status %d on a valid document, want 0 (stderr %q)", decay, code, stderr.String())
		}
		if !strings.Contains(stdout.String(), "VALID global=1.0000") {
			t.Errorf("-decay %s: output %q", decay, stdout.String())
		}
		stdout.Reset()
		if code := run([]string{"-dtd", schema, "-decay", decay, stray}, &stdout, &stderr); code != 1 {
			t.Errorf("-decay %s: exit status %d on an invalid document, want 1", decay, code)
		}
		if !strings.Contains(stdout.String(), "INVALID") {
			t.Errorf("-decay %s: output %q", decay, stdout.String())
		}
	}
}

// TestRunNoWarningOnNestedRepetition: ((a | b)*)* holds one occurrence of
// each name, so dtdcheck must not call it nondeterministic, however many
// paths reach an occurrence.
func TestRunNoWarningOnNestedRepetition(t *testing.T) {
	dir := t.TempDir()
	schema := writeFile(t, dir, "s.dtd", `<!ELEMENT r ((a | b)*)*> <!ELEMENT a EMPTY> <!ELEMENT b EMPTY>`)
	doc := writeFile(t, dir, "d.xml", `<r><a/><b/><a/></r>`)
	var stdout, stderr bytes.Buffer
	if code := run([]string{"-dtd", schema, doc}, &stdout, &stderr); code != 0 {
		t.Fatalf("exit status %d on a valid document (stderr %q)", code, stderr.String())
	}
	if strings.Contains(stderr.String(), "nondeterministic") {
		t.Errorf("deterministic model flagged:\n%s", stderr.String())
	}
}
