package lint

import (
	"fmt"
	"path/filepath"
	"testing"
)

// loadFixture loads one testdata package.
func loadFixture(t *testing.T, name string) *Package {
	t.Helper()
	pkg, err := LoadDir(filepath.Join("testdata", "src", name), Config{})
	if err != nil {
		t.Fatalf("load fixture %s: %v", name, err)
	}
	if pkg == nil {
		t.Fatalf("fixture %s: no Go files", name)
	}
	return pkg
}

// render flattens diagnostics to "file line:col rule" for golden
// comparison.
func render(diags []Diagnostic) []string {
	out := make([]string, len(diags))
	for i, d := range diags {
		out[i] = fmt.Sprintf("%s %d:%d %s", filepath.Base(d.Pos.Filename), d.Pos.Line, d.Pos.Column, d.Rule)
	}
	return out
}

func assertDiags(t *testing.T, got []Diagnostic, want []string) {
	t.Helper()
	rendered := render(got)
	if len(rendered) != len(want) {
		t.Fatalf("got %d diagnostics %v, want %d %v", len(rendered), rendered, len(want), want)
	}
	for i := range want {
		if rendered[i] != want[i] {
			t.Errorf("diagnostic %d: got %q, want %q", i, rendered[i], want[i])
		}
	}
}

// TestRuleFixtures runs each rule over its fixture package and checks
// the exact finding positions: positive hits fire, the approved idioms
// and shadowed names stay silent, and //lint:ignore suppresses.
func TestRuleFixtures(t *testing.T) {
	cases := []struct {
		fixture string
		rules   func(pkg *Package) []Rule
		want    []string
	}{
		{
			fixture: "wallclock",
			rules:   func(*Package) []Rule { return []Rule{NewWallClock(nil)} },
			want: []string{
				"alias.go 6:9 no-wall-clock",
				"wallclock.go 9:9 no-wall-clock",
				"wallclock.go 13:9 no-wall-clock",
				"wallclock.go 17:2 no-wall-clock",
			},
		},
		{
			fixture: "globalrand",
			rules:   func(*Package) []Rule { return []Rule{NewGlobalRand()} },
			want: []string{
				"globalrand.go 7:9 no-global-rand",
				"globalrand.go 11:2 no-global-rand",
			},
		},
		{
			fixture: "maprange",
			rules:   func(*Package) []Rule { return []Rule{NewMapRange()} },
			want: []string{
				"maprange.go 16:2 ordered-map-range",
				"maprange.go 39:2 ordered-map-range",
			},
		},
		{
			fixture: "checkederr",
			rules: func(pkg *Package) []Rule {
				return []Rule{NewCheckedErrors([]string{pkg.RelPath})}
			},
			want: []string{
				"checkederr.go 12:2 checked-errors-in-store",
				"checkederr.go 16:6 checked-errors-in-store",
				"checkederr.go 20:10 checked-errors-in-store",
				"checkederr.go 25:2 checked-errors-in-store",
				"checkederr.go 29:2 checked-errors-in-store",
			},
		},
		{
			fixture: "ownership",
			rules:   func(*Package) []Rule { return []Rule{NewGoroutineOwnership(nil)} },
			want: []string{
				"ownership.go 12:2 goroutine-ownership",
				"ownership.go 18:2 goroutine-ownership",
				"ownership.go 27:2 goroutine-ownership",
			},
		},
		{
			// The two-hop case (29:33) pins the acceptance criterion:
			// a wall-clock value laundered through two calls into
			// saved state is reported at the source position.
			fixture: "taint",
			rules:   func(*Package) []Rule { return []Rule{NewDeterminismTaint()} },
			want: []string{
				"taint.go 24:11 determinism-taint",
				"taint.go 29:33 determinism-taint",
				"taint.go 40:9 determinism-taint",
			},
		},
		{
			fixture: "ticket",
			rules:   func(*Package) []Rule { return []Rule{NewTicketLifecycle()} },
			want: []string{
				"ticket.go 20:3 ticket-lifecycle",
				"ticket.go 30:2 ticket-lifecycle",
			},
		},
		{
			fixture: "lockcommit",
			rules:   func(*Package) []Rule { return []Rule{NewLockAcrossCommit()} },
			want: []string{
				"lockcommit.go 22:2 no-lock-across-commit",
				"lockcommit.go 30:9 no-lock-across-commit",
				"lockcommit.go 37:2 no-lock-across-commit",
				"lockcommit.go 50:6 no-lock-across-commit",
			},
		},
		{
			fixture: "clean",
			rules:   func(pkg *Package) []Rule { return append(DefaultRules(), NewCheckedErrors([]string{pkg.RelPath})) },
			want:    nil,
		},
		{
			fixture: "directive",
			rules:   func(*Package) []Rule { return nil },
			want: []string{
				"directive.go 5:1 lint-directive",
				"directive.go 8:1 lint-directive",
			},
		},
	}
	for _, tc := range cases {
		t.Run(tc.fixture, func(t *testing.T) {
			pkg := loadFixture(t, tc.fixture)
			rules := tc.rules(pkg)
			if rules == nil {
				rules = []Rule{} // engine-only: directive parsing still runs
			}
			got := (&Runner{Rules: rules}).Run([]*Package{pkg})
			assertDiags(t, got, tc.want)
		})
	}
}

// TestWallClockAllowlist verifies an allowlisted package is skipped
// wholesale.
func TestWallClockAllowlist(t *testing.T) {
	pkg := loadFixture(t, "wallclock")
	rule := NewWallClock([]string{pkg.RelPath})
	if got := rule.Check(pkg); len(got) != 0 {
		t.Fatalf("allowlisted package still reported %d findings: %v", len(got), render(got))
	}
	// A parent-path entry covers the subtree too.
	rule = NewWallClock([]string{"internal/lint/testdata"})
	if got := rule.Check(pkg); len(got) != 0 {
		t.Fatalf("subtree allowlist still reported %d findings: %v", len(got), render(got))
	}
}

// TestWallClockDefaultAllowlist pins the default allowlist's behaviour
// against the wallclock fixture: the profiling subsystem (which owns
// every time.Now the parallel observer hooks need) is allowlisted, the
// deterministic sensing loop is not. Guards against the allowlist being
// narrowed while internal/prof still reads the clock.
func TestWallClockDefaultAllowlist(t *testing.T) {
	rule := NewWallClock(nil)
	for rel, wantClean := range map[string]bool{
		"internal/prof":      true,
		"internal/obs":       true,
		"internal/supervise": true,
		"internal/core":      false,
		"internal/parallel":  false,
		// The admission controller must stay clockless; only its
		// retry.go edge is allowed (see TestWallClockFileScope).
		"internal/admission": false,
	} {
		pkg := loadFixture(t, "wallclock")
		pkg.RelPath = rel
		got := rule.Check(pkg)
		if wantClean && len(got) != 0 {
			t.Errorf("%s: default allowlist should cover it, got %d findings: %v", rel, len(got), render(got))
		}
		if !wantClean && len(got) == 0 {
			t.Errorf("%s: expected findings outside the allowlist, got none", rel)
		}
	}
}

// TestWallClockFileScope verifies the rule's file-granular allowlist:
// a ".go" entry clears exactly that file's wall-clock reads while the
// rest of the package stays checked — the shape of the
// internal/admission/retry.go default entry, where the retry helper's
// Sleep seam is the package's one legal clocked edge.
func TestWallClockFileScope(t *testing.T) {
	pkg := loadFixture(t, "wallclock")
	pkg.RelPath = "internal/admission"
	pkg.Files[0].Name = "internal/admission/retry.go"
	allowed := NewWallClock([]string{"internal/admission/retry.go"})
	got := allowed.Check(pkg)
	if len(got) == 0 {
		t.Fatal("file-scoped allowlist silenced the whole package")
	}
	for _, d := range got {
		if filepath.Base(d.Pos.Filename) == "alias.go" {
			t.Fatalf("allowlisted file still reported: %v", d)
		}
	}
	// The default allowlist behaves identically for the real entry.
	if got := NewWallClock(nil).Check(pkg); len(got) == 0 {
		t.Fatal("default allowlist silenced the non-retry files of internal/admission")
	}
}

// TestGoroutineDefaultAllowlist pins where a recovered-but-unjoined
// spawn is legal: only the supervised runtime packages, whose
// recover-wrapped spawn IS the ownership mechanism. Joins are accepted
// anywhere; naked spawns nowhere. Guards against the allowlist
// silently widening to a package that would then leak unsupervised
// goroutines.
func TestGoroutineDefaultAllowlist(t *testing.T) {
	rule := NewGoroutineOwnership(nil)
	for rel, supervisedOK := range map[string]bool{
		"internal/parallel":  true,
		"internal/supervise": true,
		"internal/service":   false,
		"internal/core":      false,
		"cmd/crowdlearnd":    false,
	} {
		pkg := loadFixture(t, "ownership")
		pkg.RelPath = rel
		got := render(rule.Check(pkg))
		naked, recovered := false, false
		for _, d := range got {
			switch d {
			case "ownership.go 12:2 goroutine-ownership":
				naked = true
			case "ownership.go 27:2 goroutine-ownership":
				recovered = true
			}
		}
		if !naked {
			t.Errorf("%s: the naked spawn must be flagged regardless of package, got %v", rel, got)
		}
		if supervisedOK && recovered {
			t.Errorf("%s: a recovered spawn inside the supervised runtime should pass, got %v", rel, got)
		}
		if !supervisedOK && !recovered {
			t.Errorf("%s: a recovered spawn outside the supervised runtime must be flagged, got %v", rel, got)
		}
	}
}

// TestCheckedErrorsFileScope verifies a ".go"-suffixed scope entry
// restricts the rule to that one file.
func TestCheckedErrorsFileScope(t *testing.T) {
	pkg := loadFixture(t, "checkederr")
	file := pkg.Files[0].Name
	rule := NewCheckedErrors([]string{file})
	if got := rule.Check(pkg); len(got) == 0 {
		t.Fatalf("file-scoped rule found nothing in %s", file)
	}
	rule = NewCheckedErrors([]string{"internal/lint/testdata/src/checkederr/other.go"})
	if got := rule.Check(pkg); len(got) != 0 {
		t.Fatalf("rule scoped to a different file reported %d findings", len(got))
	}
}

// TestRuleMetadata keeps names and docs stable and non-empty; the
// Makefile, CI and ignore directives all reference rules by name.
func TestRuleMetadata(t *testing.T) {
	wantNames := []string{
		"no-wall-clock",
		"no-global-rand",
		"ordered-map-range",
		"checked-errors-in-store",
		"determinism-taint",
		"ticket-lifecycle",
		"no-lock-across-commit",
		"goroutine-ownership",
	}
	rules := DefaultRules()
	if got := RuleNames(rules); len(got) != len(wantNames) {
		t.Fatalf("DefaultRules has %d rules, want %d", len(got), len(wantNames))
	}
	for i, r := range rules {
		if r.Name() != wantNames[i] {
			t.Errorf("rule %d name = %q, want %q", i, r.Name(), wantNames[i])
		}
		if r.Doc() == "" {
			t.Errorf("rule %s has empty doc", r.Name())
		}
	}
}
