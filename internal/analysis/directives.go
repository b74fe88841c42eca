package analysis

import (
	"bytes"
	"fmt"
	"go/token"
	"strings"
)

// A directive is one parsed //bvclint:allow comment. It suppresses
// diagnostics of one named analyzer on exactly one line: the line the
// comment trails, or — when the comment stands on its own line — the
// line immediately below it.
type directive struct {
	analyzer string
	file     string
	// target is the line whose diagnostics the directive suppresses.
	target int
	// pos is the directive comment itself, where staleness is reported.
	pos token.Position
}

const directivePrefix = "//bvclint:allow"

// scanDirectives extracts every //bvclint:allow directive from the
// package's comments. Malformed directives — an analyzer name the
// suite doesn't know, or a missing "-- justification" tail — are
// themselves reported under the pseudo-analyzer "bvclint", so stale or
// typo'd suppressions can never silently disable a check.
func scanDirectives(pkg *Package, known map[string]bool) ([]directive, []Diagnostic) {
	var dirs []directive
	var diags []Diagnostic
	for _, f := range pkg.Syntax {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				if !strings.HasPrefix(c.Text, directivePrefix) {
					continue
				}
				pos := pkg.Fset.Position(c.Pos())
				rest := strings.TrimPrefix(c.Text, directivePrefix)
				if rest != "" && rest[0] != ' ' && rest[0] != '\t' {
					continue // e.g. //bvclint:allowance — not ours
				}
				name, reason, hasReason := strings.Cut(strings.TrimSpace(rest), "--")
				name = strings.TrimSpace(name)
				report := func(format string, args ...any) {
					diags = append(diags, Diagnostic{
						Analyzer: "bvclint",
						Pos:      pos,
						Message:  fmt.Sprintf(format, args...),
					})
				}
				if name == "" || strings.ContainsAny(name, " \t") {
					report("malformed directive: want //bvclint:allow <analyzer> -- <justification>")
					continue
				}
				if !known[name] {
					report("directive names unknown analyzer %q", name)
					continue
				}
				if !hasReason || strings.TrimSpace(reason) == "" {
					report("directive for %s is missing a justification (append: -- <why this site is exempt>)", name)
					continue
				}
				target := pos.Line
				if ownLine(pkg.Src[pos.Filename], pos) {
					target = pos.Line + 1
				}
				dirs = append(dirs, directive{analyzer: name, file: pos.Filename, target: target, pos: pos})
			}
		}
	}
	return dirs, diags
}

// ownLine reports whether only whitespace precedes the comment on its
// line, i.e. the directive does not trail code.
func ownLine(src []byte, pos token.Position) bool {
	if src == nil {
		return false
	}
	start := pos.Offset - (pos.Column - 1)
	if start < 0 || pos.Offset > len(src) {
		return false
	}
	return len(bytes.TrimSpace(src[start:pos.Offset])) == 0
}

// applyDirectives drops each diagnostic whose (file, line, analyzer)
// matches a directive's target. The returned slice marks, per
// directive, whether it suppressed at least one diagnostic — the
// staleness check turns unused directives into findings of their own.
func applyDirectives(diags []Diagnostic, dirs []directive) ([]Diagnostic, []bool) {
	used := make([]bool, len(dirs))
	if len(dirs) == 0 {
		return diags, used
	}
	type key struct {
		file     string
		line     int
		analyzer string
	}
	// Last directive wins the key; an exact duplicate is left unused
	// and therefore reported stale, which is the right answer for it.
	allowed := make(map[key]int, len(dirs))
	for i, d := range dirs {
		allowed[key{d.file, d.target, d.analyzer}] = i
	}
	kept := diags[:0]
	for _, d := range diags {
		if i, ok := allowed[key{d.Pos.Filename, d.Pos.Line, d.Analyzer}]; ok {
			used[i] = true
			continue
		}
		kept = append(kept, d)
	}
	return kept, used
}
