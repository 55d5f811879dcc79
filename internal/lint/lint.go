// Package lint is crowdlearn's custom static-analysis engine. It
// enforces the repo-specific invariants the test suite can only probe:
// deterministic replay (no wall clock, no global randomness, no
// unordered map iteration in serialization paths), lock hygiene and
// durability-critical error handling. The engine is stdlib-only —
// go/ast + go/parser + go/token — because the module carries zero
// external dependencies and must stay that way.
//
// Diagnostics carry exact file:line:col positions and can be suppressed
// per line with
//
//	//lint:ignore <rule>[,<rule>...] <reason>
//
// placed on the offending line or the line directly above it. A
// directive without a reason is itself reported (rule
// "lint-directive"), so every deliberate exception stays documented.
package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"sort"
	"strings"
)

// Diagnostic is one finding: a violated rule at an exact position.
type Diagnostic struct {
	Rule    string
	Pos     token.Position
	Message string
}

// String renders the conventional compiler-style form
// "file:line:col: rule: message".
func (d Diagnostic) String() string {
	return fmt.Sprintf("%s:%d:%d: %s: %s", d.Pos.Filename, d.Pos.Line, d.Pos.Column, d.Rule, d.Message)
}

// Rule is one analysis. Check inspects a parsed package and returns its
// findings; the engine handles suppression, ordering and output.
type Rule interface {
	// Name is the stable identifier used in output and ignore
	// directives, e.g. "no-wall-clock".
	Name() string
	// Doc is a one-line description of the invariant the rule protects.
	Doc() string
	// Check analyses one package.
	Check(pkg *Package) []Diagnostic
}

// DefaultRules returns the production rule set with repo defaults.
func DefaultRules() []Rule {
	return []Rule{
		NewWallClock(nil),
		NewGlobalRand(),
		NewMapRange(),
		NewCheckedErrors(nil),
		NewDeterminismTaint(),
		NewTicketLifecycle(),
		NewLockAcrossCommit(),
		NewGoroutineOwnership(nil),
	}
}

// RuleNames lists the names of rules in order.
func RuleNames(rules []Rule) []string {
	names := make([]string, len(rules))
	for i, r := range rules {
		names[i] = r.Name()
	}
	return names
}

// DirectiveRule is the pseudo-rule under which malformed //lint:ignore
// directives are reported.
const DirectiveRule = "lint-directive"

// ignoreDirective is one parsed //lint:ignore comment.
type ignoreDirective struct {
	rules  map[string]bool // nil after parse error
	reason string
	pos    token.Position
}

const ignorePrefix = "//lint:ignore"

// parseIgnores extracts the file's ignore directives, keyed by the line
// the directive sits on. Malformed directives (missing rule list or
// reason) are returned as diagnostics instead.
func parseIgnores(fset *token.FileSet, file *ast.File) (map[int]ignoreDirective, []Diagnostic) {
	var diags []Diagnostic
	ignores := make(map[int]ignoreDirective)
	for _, group := range file.Comments {
		for _, c := range group.List {
			if !strings.HasPrefix(c.Text, ignorePrefix) {
				continue
			}
			rest := strings.TrimPrefix(c.Text, ignorePrefix)
			pos := fset.Position(c.Pos())
			if rest != "" && rest[0] != ' ' && rest[0] != '\t' {
				continue // e.g. //lint:ignored — not ours
			}
			fields := strings.Fields(rest)
			if len(fields) < 2 {
				diags = append(diags, Diagnostic{
					Rule:    DirectiveRule,
					Pos:     pos,
					Message: "malformed ignore directive: want //lint:ignore <rule>[,<rule>] <reason>",
				})
				continue
			}
			rules := make(map[string]bool)
			for _, r := range strings.Split(fields[0], ",") {
				if r != "" {
					rules[r] = true
				}
			}
			ignores[pos.Line] = ignoreDirective{
				rules:  rules,
				reason: strings.Join(fields[1:], " "),
				pos:    pos,
			}
		}
	}
	return ignores, diags
}

// Runner applies a rule set across packages and post-processes the
// findings: suppression via ignore directives, then a deterministic
// file/line/col/rule ordering.
type Runner struct {
	Rules []Rule
}

// NewRunner returns a Runner over the given rules (DefaultRules when
// nil).
func NewRunner(rules []Rule) *Runner {
	if rules == nil {
		rules = DefaultRules()
	}
	return &Runner{Rules: rules}
}

// Run checks every package and returns the surviving diagnostics in
// deterministic order. Per-package rules run once per package;
// ProgramRules run once over the whole load, so cross-package analyses
// see every call edge the load produced.
func (r *Runner) Run(pkgs []*Package) []Diagnostic {
	var all []Diagnostic
	// Ignore tables are global, keyed by the diagnostic filename: a
	// program rule may report into any loaded file.
	ignores := make(map[string]map[int]ignoreDirective)
	for _, pkg := range pkgs {
		for _, f := range pkg.Files {
			ig, bad := parseIgnores(pkg.Fset, f.AST)
			ignores[f.Name] = ig
			all = append(all, bad...)
		}
	}
	keep := func(diags []Diagnostic) {
		for _, d := range diags {
			if suppressed(ignores[d.Pos.Filename], d) {
				continue
			}
			all = append(all, d)
		}
	}
	prog := NewProgram(pkgs)
	for _, rule := range r.Rules {
		if pr, ok := rule.(ProgramRule); ok {
			keep(pr.CheckProgram(prog))
			continue
		}
		for _, pkg := range pkgs {
			keep(rule.Check(pkg))
		}
	}
	sort.Slice(all, func(i, j int) bool {
		a, b := all[i], all[j]
		if a.Pos.Filename != b.Pos.Filename {
			return a.Pos.Filename < b.Pos.Filename
		}
		if a.Pos.Line != b.Pos.Line {
			return a.Pos.Line < b.Pos.Line
		}
		if a.Pos.Column != b.Pos.Column {
			return a.Pos.Column < b.Pos.Column
		}
		return a.Rule < b.Rule
	})
	return all
}

// suppressed reports whether an ignore directive on the diagnostic's
// line or the line directly above covers its rule.
func suppressed(ignores map[int]ignoreDirective, d Diagnostic) bool {
	for _, line := range [2]int{d.Pos.Line, d.Pos.Line - 1} {
		if ig, ok := ignores[line]; ok && ig.rules[d.Rule] {
			return true
		}
	}
	return false
}

// --- shared AST helpers used by the rules ---

// importName reports the local identifier under which path is imported
// in file, or "" when it is not imported (or imported as . or _).
func importName(file *ast.File, path string) string {
	for _, imp := range file.Imports {
		p := strings.Trim(imp.Path.Value, `"`)
		if p != path {
			continue
		}
		if imp.Name != nil {
			if imp.Name.Name == "." || imp.Name.Name == "_" {
				return ""
			}
			return imp.Name.Name
		}
		if i := strings.LastIndex(p, "/"); i >= 0 {
			return p[i+1:]
		}
		return p
	}
	return ""
}

// isPkgRef reports whether ident is a reference to the package imported
// under name: the name matches, the parser resolved no local object for
// it, and the package itself declares no top-level identifier of that
// name (which would shadow the import in other files).
func (p *Package) isPkgRef(ident *ast.Ident, name string) bool {
	return ident.Name == name && ident.Obj == nil && !p.TopLevelNames[name]
}

// pkgSelector matches a reference pkg.Fn where pkg is the local import
// name of path in file. It returns the selector and true on match.
func (p *Package) pkgSelector(file *ast.File, n ast.Node, path string) (*ast.SelectorExpr, bool) {
	sel, ok := n.(*ast.SelectorExpr)
	if !ok {
		return nil, false
	}
	x, ok := sel.X.(*ast.Ident)
	if !ok {
		return nil, false
	}
	name := importName(file, path)
	if name == "" || !p.isPkgRef(x, name) {
		return nil, false
	}
	return sel, true
}

// matchesScope reports whether the package (rel path) or one of its
// files falls inside a scope entry: entries ending in ".go" match one
// file exactly; other entries match the package path itself or any path
// beneath it.
func matchesScope(rel, filename string, scopes []string) bool {
	for _, s := range scopes {
		s = strings.TrimSuffix(s, "/")
		if strings.HasSuffix(s, ".go") {
			if filename == s {
				return true
			}
			continue
		}
		if rel == s || strings.HasPrefix(rel, s+"/") {
			return true
		}
	}
	return false
}
