package atm

import (
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"strings"
	"testing"
)

// mdLink matches inline markdown links [text](target). Reference-style
// links and autolinks are out of scope — the docs don't use them.
var mdLink = regexp.MustCompile(`\]\(([^)\s]+)\)`)

// TestDocsLinks fails on dead relative links in README.md and docs/*.md,
// so the doc layer can't silently rot as files move. External URLs and
// in-page anchors are not checked.
func TestDocsLinks(t *testing.T) {
	pages := []string{"README.md"}
	docs, err := filepath.Glob(filepath.Join("docs", "*.md"))
	if err != nil {
		t.Fatal(err)
	}
	pages = append(pages, docs...)
	if len(pages) < 2 {
		t.Fatalf("expected README.md plus docs/*.md, found %v", pages)
	}
	checked := 0
	for _, page := range pages {
		body, err := os.ReadFile(page)
		if err != nil {
			t.Fatalf("%s: %v", page, err)
		}
		for _, m := range mdLink.FindAllStringSubmatch(string(body), -1) {
			target := m[1]
			if strings.Contains(target, "://") || strings.HasPrefix(target, "mailto:") {
				continue
			}
			// In-page anchor, or a path + anchor: check only the path part.
			if i := strings.IndexByte(target, '#'); i >= 0 {
				target = target[:i]
				if target == "" {
					continue
				}
			}
			rel := filepath.Join(filepath.Dir(page), filepath.FromSlash(target))
			if _, err := os.Stat(rel); err != nil {
				t.Errorf("%s: dead link %q (resolved %s)", page, m[1], rel)
			}
			checked++
		}
	}
	if checked == 0 {
		t.Fatal("link checker matched no relative links; regexp or docs layout broken")
	}
}

// snapshotctlRef matches a snapshotctl subcommand named in prose or in
// a shell example ("snapshotctl inspect warm.atmchain"), and
// snapshotctlCase a subcommand the tool dispatches.
var (
	snapshotctlRef  = regexp.MustCompile(`\bsnapshotctl ([a-z][a-z-]*)`)
	snapshotctlCase = regexp.MustCompile(`case "([a-z][a-z-]*)"`)
)

// TestDocsSnapshotctlSubcommands fails when README.md or docs/*.md
// names a snapshotctl subcommand that cmd/snapshotctl does not
// implement, so a renamed or invented command cannot linger in the
// docs.
func TestDocsSnapshotctlSubcommands(t *testing.T) {
	src, err := os.ReadFile(filepath.Join("cmd", "snapshotctl", "main.go"))
	if err != nil {
		t.Fatal(err)
	}
	cases := map[string]bool{}
	var known []string
	for _, m := range snapshotctlCase.FindAllStringSubmatch(string(src), -1) {
		cases[m[1]] = true
		known = append(known, m[1])
	}
	sort.Strings(known)
	if len(cases) == 0 {
		t.Fatal("found no subcommand cases in cmd/snapshotctl/main.go; regexp or layout broken")
	}
	pages, err := filepath.Glob(filepath.Join("docs", "*.md"))
	if err != nil {
		t.Fatal(err)
	}
	pages = append(pages, "README.md")
	named := map[string]bool{}
	for _, page := range pages {
		body, err := os.ReadFile(page)
		if err != nil {
			t.Fatalf("%s: %v", page, err)
		}
		for _, m := range snapshotctlRef.FindAllStringSubmatch(string(body), -1) {
			named[m[1]] = true
			if !cases[m[1]] {
				t.Errorf("%s: names `snapshotctl %s`; cmd/snapshotctl implements %v", page, m[1], known)
			}
		}
	}
	if len(named) == 0 {
		t.Fatal("docs name no snapshotctl subcommand; regexp or docs layout broken")
	}
}
