package docscheck

import (
	"os"
	"path/filepath"
	"testing"
)

func write(t *testing.T, path, content string) {
	t.Helper()
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
		t.Fatal(err)
	}
}

func TestCheckLinksFindsBrokenAndAcceptsValid(t *testing.T) {
	dir := t.TempDir()
	write(t, filepath.Join(dir, "a.md"), `
[good](b.md) and [good anchor](b.md#section) and [page anchor](#here)
and [external](https://example.com/x.md) and [mail](mailto:x@y.z)
and [broken](missing.md) and ![broken img](img/missing.png)
and [into docs](docs/guide.md)
`)
	write(t, filepath.Join(dir, "b.md"), "# b\n")
	write(t, filepath.Join(dir, "docs", "guide.md"), "[up](../a.md)\n")

	problems, err := CheckLinks(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(problems) != 2 {
		t.Fatalf("problems = %v, want exactly the 2 broken links", problems)
	}
	for _, p := range problems {
		if p.Link != "missing.md" && p.Link != "img/missing.png" {
			t.Errorf("unexpected problem %v", p)
		}
	}
}

func TestCheckLinksIgnoresCode(t *testing.T) {
	dir := t.TempDir()
	write(t, filepath.Join(dir, "a.md"), "```go\nx := a[0](nope.md)\n```\nand `[inline](nope2.md)` code\n")
	problems, err := CheckLinks(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(problems) != 0 {
		t.Fatalf("code spans reported as links: %v", problems)
	}
}

func TestCheckLinksIgnoresIndentedCodeBlocks(t *testing.T) {
	dir := t.TempDir()
	// The indented block after a blank line is code; the indented list
	// continuation (no preceding blank line) is prose and its broken
	// link must still be reported.
	write(t, filepath.Join(dir, "a.md"), `intro

    [example](missing-in-code.md)
    more code

- item
    [broken](missing-in-list.md)
`)
	problems, err := CheckLinks(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(problems) != 1 || problems[0].Link != "missing-in-list.md" {
		t.Fatalf("problems = %v, want exactly the list-continuation link", problems)
	}
}

func TestCheckLinksSkipsGeneratedArtifacts(t *testing.T) {
	dir := t.TempDir()
	write(t, filepath.Join(dir, "PAPERS.md"), "![](extracted_figure.jpeg)\n")
	problems, err := CheckLinks(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(problems) != 0 {
		t.Fatalf("generated artifact checked: %v", problems)
	}
}

func TestCheckLinksSkipsGitDir(t *testing.T) {
	dir := t.TempDir()
	write(t, filepath.Join(dir, ".git", "x.md"), "[broken](gone.md)\n")
	problems, err := CheckLinks(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(problems) != 0 {
		t.Fatalf(".git contents checked: %v", problems)
	}
}

// TestRepoMarkdownLinks is the repo-wide gate CI's test step runs:
// every relative link in every tracked markdown file must resolve.
func TestRepoMarkdownLinks(t *testing.T) {
	root, err := filepath.Abs(filepath.Join("..", ".."))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(filepath.Join(root, "go.mod")); err != nil {
		t.Fatalf("repo root not found at %s: %v", root, err)
	}
	problems, err := CheckLinks(root)
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range problems {
		t.Errorf("%s", p)
	}
}
