package lint

import (
	"os"
	"path/filepath"
	"testing"
)

// TestRepoIsClean runs the full default rule suite over the repository
// itself and requires zero findings. This is the regression half of the
// lint gate: a future violation fails `go test ./...`, not just the
// `make lint` step, so the determinism/durability invariants cannot
// regress through a path that skips CI's lint job.
func TestRepoIsClean(t *testing.T) {
	wd, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	root, err := FindModuleRoot(wd)
	if err != nil {
		t.Fatal(err)
	}
	pkgs, err := LoadTree(root, Config{})
	if err != nil {
		t.Fatal(err)
	}
	if len(pkgs) < 10 {
		t.Fatalf("loaded only %d packages from %s; loader is missing the tree", len(pkgs), root)
	}
	if got := len(DefaultRules()); got != 8 {
		t.Fatalf("DefaultRules has %d rules; the eight-rule suite (DESIGN §11) lost one", got)
	}
	diags := NewRunner(DefaultRules()).Run(pkgs)
	for _, d := range diags {
		t.Errorf("%s", d)
	}
	if len(diags) > 0 {
		t.Fatalf("repository has %d lint finding(s); fix them or add //lint:ignore with a reason", len(diags))
	}
}

// TestBaselineIsCurrent keeps the committed lint-baseline.json exactly
// in sync with the tree's //lint:ignore count: growth fails here (and
// in `make lint`), and a ratchet-down that forgets to re-record the
// baseline fails too, so the file never goes stale.
func TestBaselineIsCurrent(t *testing.T) {
	wd, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	root, err := FindModuleRoot(wd)
	if err != nil {
		t.Fatal(err)
	}
	pkgs, err := LoadTree(root, Config{})
	if err != nil {
		t.Fatal(err)
	}
	current := CountIgnores(pkgs)
	accepted, err := ReadBaseline(filepath.Join(root, "lint-baseline.json"))
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range accepted.Compare(current) {
		t.Error(p)
	}
	if current.Total < accepted.Total {
		t.Errorf("baseline is stale: the tree has %d //lint:ignore directives but lint-baseline.json records %d; re-run `go run ./cmd/crowdlint -write-baseline lint-baseline.json ./...` to ratchet it down",
			current.Total, accepted.Total)
	}
}
