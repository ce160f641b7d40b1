// Package docscheck validates the repository's markdown documentation:
// it walks every *.md file and verifies that relative links resolve to
// files that actually exist. External (http, https, mailto) links are
// not fetched — the check must stay deterministic and offline — and
// pure in-page anchors are skipped. The repo-wide test in this package
// runs with every `go test ./...`, so a doc that links to a moved or
// deleted file fails the build instead of rotting silently.
package docscheck

import (
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"strings"
)

// Problem is one broken link.
type Problem struct {
	// File is the markdown file containing the link, relative to the
	// checked root.
	File string
	// Link is the link target as written.
	Link string
	// Target is the resolved filesystem path that does not exist.
	Target string
}

// String renders the problem as file: link -> target.
func (p Problem) String() string {
	return fmt.Sprintf("%s: link %q -> missing %s", p.File, p.Link, p.Target)
}

// inlineLink matches markdown inline links and images,
// [text](target) / ![alt](target), capturing the target. Nested
// brackets in the text are not supported; the repo's docs do not use
// them.
var inlineLink = regexp.MustCompile(`!?\[[^\]]*\]\(([^)\s]+)(?:\s+"[^"]*")?\)`)

// skipDirs are never descended into.
var skipDirs = map[string]bool{".git": true, "node_modules": true, "vendor": true}

// skipFiles are machine-generated retrieval artifacts whose asset
// links (e.g. figures extracted from PDFs) are intentionally not
// vendored into the repo. Hand-written docs are never listed here.
var skipFiles = map[string]bool{"PAPERS.md": true}

// CheckLinks walks root for markdown files and returns every relative
// link whose target does not exist. A nil slice means the docs are
// clean.
func CheckLinks(root string) ([]Problem, error) {
	var problems []Problem
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if skipDirs[d.Name()] {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.EqualFold(filepath.Ext(path), ".md") || skipFiles[d.Name()] {
			return nil
		}
		ps, err := checkFile(root, path)
		if err != nil {
			return err
		}
		problems = append(problems, ps...)
		return nil
	})
	return problems, err
}

// checkFile extracts and verifies the relative links of one file.
func checkFile(root, path string) ([]Problem, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	rel, err := filepath.Rel(root, path)
	if err != nil {
		rel = path
	}
	var problems []Problem
	for _, m := range inlineLink.FindAllStringSubmatch(stripCodeBlocks(string(data)), -1) {
		link := m[1]
		if isExternal(link) {
			continue
		}
		target := link
		if i := strings.IndexByte(target, '#'); i >= 0 {
			target = target[:i]
		}
		if target == "" {
			continue // pure in-page anchor
		}
		resolved := filepath.Join(filepath.Dir(path), filepath.FromSlash(target))
		if _, err := os.Stat(resolved); err != nil {
			problems = append(problems, Problem{File: rel, Link: link, Target: resolved})
		}
	}
	return problems, nil
}

// isExternal reports whether the link leaves the repository.
func isExternal(link string) bool {
	for _, prefix := range []string{"http://", "https://", "mailto:", "ftp://"} {
		if strings.HasPrefix(link, prefix) {
			return true
		}
	}
	return false
}

// stripCodeBlocks blanks out fenced code blocks, indented (CommonMark
// four-space) code blocks and inline code spans, whose bracket-paren
// sequences (Go slices, shell snippets, markdown examples) are not
// links.
func stripCodeBlocks(s string) string {
	var out strings.Builder
	out.Grow(len(s))
	inFence := false
	prevBlank := true // file start opens an indented block like a blank line
	inIndented := false
	for _, line := range strings.SplitAfter(s, "\n") {
		trimmed := strings.TrimSpace(line)
		if strings.HasPrefix(trimmed, "```") {
			inFence = !inFence
			out.WriteString("\n")
			continue
		}
		if inFence {
			out.WriteString("\n")
			continue
		}
		// An indented code block starts after a blank line (it cannot
		// interrupt a paragraph or a list item's continuation) and runs
		// while lines stay indented.
		indented := strings.HasPrefix(line, "    ") || strings.HasPrefix(line, "\t")
		if indented && trimmed != "" && (prevBlank || inIndented) {
			inIndented = true
			prevBlank = false
			out.WriteString("\n")
			continue
		}
		inIndented = false
		prevBlank = trimmed == ""
		out.WriteString(stripInlineCode(line))
	}
	return out.String()
}

// stripInlineCode blanks `code spans` within one line.
func stripInlineCode(line string) string {
	var out strings.Builder
	out.Grow(len(line))
	inCode := false
	for _, r := range line {
		switch {
		case r == '`':
			inCode = !inCode
			out.WriteRune(' ')
		case inCode:
			out.WriteRune(' ')
		default:
			out.WriteRune(r)
		}
	}
	return out.String()
}
