package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// writeModule lays out a throwaway module and returns its root.
func writeModule(t *testing.T, files map[string]string) string {
	t.Helper()
	root := t.TempDir()
	files["go.mod"] = "module example.com/fixture\n\ngo 1.22\n"
	for name, src := range files {
		path := filepath.Join(root, filepath.FromSlash(name))
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(src), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	return root
}

// chdir switches into dir for the duration of the test.
func chdir(t *testing.T, dir string) {
	t.Helper()
	old, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Chdir(dir); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { os.Chdir(old) })
}

const dirtyFile = `package p

import (
	"math/rand"
	"time"
)

func roll() int { return rand.Intn(6) }

func stamp() int64 { return time.Now().Unix() }
`

func TestDirtyTreeExitsOne(t *testing.T) {
	root := writeModule(t, map[string]string{"internal/p/p.go": dirtyFile})
	chdir(t, root)
	var stdout, stderr bytes.Buffer
	if code := run(nil, &stdout, &stderr); code != 1 {
		t.Fatalf("exit = %d, want 1\nstdout: %s\nstderr: %s", code, stdout.String(), stderr.String())
	}
	out := stdout.String()
	for _, want := range []string{
		"internal/p/p.go:8:26: no-global-rand:",
		"internal/p/p.go:10:29: no-wall-clock:",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q:\n%s", want, out)
		}
	}
	if !strings.Contains(stderr.String(), "2 finding(s)") {
		t.Errorf("stderr missing finding count: %s", stderr.String())
	}
}

func TestCleanTreeExitsZero(t *testing.T) {
	root := writeModule(t, map[string]string{
		"internal/p/p.go": "package p\n\nfunc ok() int { return 1 }\n",
	})
	chdir(t, root)
	var stdout, stderr bytes.Buffer
	if code := run(nil, &stdout, &stderr); code != 0 {
		t.Fatalf("exit = %d, want 0\nstdout: %s\nstderr: %s", code, stdout.String(), stderr.String())
	}
	if stdout.Len() != 0 {
		t.Errorf("clean run produced output: %s", stdout.String())
	}
}

func TestJSONOutputShape(t *testing.T) {
	root := writeModule(t, map[string]string{"internal/p/p.go": dirtyFile})
	chdir(t, root)
	var stdout, stderr bytes.Buffer
	if code := run([]string{"-json", "./..."}, &stdout, &stderr); code != 1 {
		t.Fatalf("exit = %d, want 1; stderr: %s", code, stderr.String())
	}
	var diags []jsonDiagnostic
	if err := json.Unmarshal(stdout.Bytes(), &diags); err != nil {
		t.Fatalf("output is not a JSON diagnostic array: %v\n%s", err, stdout.String())
	}
	if len(diags) != 2 {
		t.Fatalf("got %d diagnostics, want 2: %+v", len(diags), diags)
	}
	first := diags[0]
	if first.Rule != "no-global-rand" || first.File != "internal/p/p.go" ||
		first.Line != 8 || first.Col != 26 || !strings.Contains(first.Message, "rand.Intn") {
		t.Errorf("unexpected first diagnostic: %+v", first)
	}
	if diags[1].Rule != "no-wall-clock" {
		t.Errorf("unexpected second diagnostic: %+v", diags[1])
	}
}

// TestJSONGolden pins the exact machine-readable diagnostic shape —
// field names, ordering, indentation — against a committed golden
// file, so downstream report consumers (the CI artifact) never see a
// silent format change.
func TestJSONGolden(t *testing.T) {
	goldenPath, err := filepath.Abs(filepath.Join("testdata", "diagnostics.golden"))
	if err != nil {
		t.Fatal(err)
	}
	golden, err := os.ReadFile(goldenPath)
	if err != nil {
		t.Fatal(err)
	}
	root := writeModule(t, map[string]string{"internal/p/p.go": dirtyFile})
	chdir(t, root)
	var stdout, stderr bytes.Buffer
	if code := run([]string{"-json", "./..."}, &stdout, &stderr); code != 1 {
		t.Fatalf("exit = %d, want 1; stderr: %s", code, stderr.String())
	}
	if stdout.String() != string(golden) {
		t.Errorf("JSON output diverged from testdata/diagnostics.golden:\n--- got ---\n%s\n--- want ---\n%s",
			stdout.String(), golden)
	}
}

// TestBaselineRatchet exercises the ignore-count gate: a tree whose
// suppression count exceeds the accepted baseline fails even when the
// findings themselves are suppressed.
func TestBaselineRatchet(t *testing.T) {
	suppressed := `package p

import "time"

func stamp() int64 {
	//lint:ignore no-wall-clock test fixture
	return time.Now().Unix()
}
`
	root := writeModule(t, map[string]string{"internal/p/p.go": suppressed})
	chdir(t, root)
	var stdout, stderr bytes.Buffer
	if code := run([]string{"-write-baseline", "accepted.json", "./..."}, &stdout, &stderr); code != 0 {
		t.Fatalf("write-baseline: exit = %d; stderr: %s", code, stderr.String())
	}
	if code := run([]string{"-baseline", "accepted.json", "./..."}, &stdout, &stderr); code != 0 {
		t.Fatalf("at-baseline run: exit = %d, want 0; stderr: %s", code, stderr.String())
	}
	// Zero accepted ignores: the existing suppression now counts as
	// growth and must fail the run despite zero findings.
	if err := os.WriteFile("strict.json", []byte(`{"total":0,"rules":{}}`), 0o644); err != nil {
		t.Fatal(err)
	}
	stdout.Reset()
	stderr.Reset()
	if code := run([]string{"-baseline", "strict.json", "./..."}, &stdout, &stderr); code != 1 {
		t.Fatalf("over-baseline run: exit = %d, want 1; stderr: %s", code, stderr.String())
	}
	if !strings.Contains(stderr.String(), "grew from 0 to 1") {
		t.Errorf("stderr missing growth message: %s", stderr.String())
	}
}

// TestSummaryAndReport checks the per-rule count summary and the CI
// report artifact.
func TestSummaryAndReport(t *testing.T) {
	root := writeModule(t, map[string]string{"internal/p/p.go": dirtyFile})
	chdir(t, root)
	var stdout, stderr bytes.Buffer
	if code := run([]string{"-summary", "-report", "report.json", "./..."}, &stdout, &stderr); code != 1 {
		t.Fatalf("exit = %d, want 1; stderr: %s", code, stderr.String())
	}
	for _, want := range []string{"crowdlint summary: 2 finding(s)", "no-global-rand", "no-wall-clock"} {
		if !strings.Contains(stdout.String(), want) {
			t.Errorf("summary missing %q:\n%s", want, stdout.String())
		}
	}
	data, err := os.ReadFile("report.json")
	if err != nil {
		t.Fatal(err)
	}
	var rep jsonReport
	if err := json.Unmarshal(data, &rep); err != nil {
		t.Fatalf("report is not valid JSON: %v\n%s", err, data)
	}
	if rep.Total != 2 || rep.Counts["no-wall-clock"] != 1 || len(rep.Findings) != 2 {
		t.Errorf("unexpected report: %+v", rep)
	}
}

// TestGraphOutput checks -graph emits the call-graph listing instead of
// diagnostics.
func TestGraphOutput(t *testing.T) {
	root := writeModule(t, map[string]string{
		"internal/p/p.go": "package p\n\nfunc a() { b() }\n\nfunc b() {}\n",
	})
	chdir(t, root)
	var stdout, stderr bytes.Buffer
	if code := run([]string{"-graph", "./..."}, &stdout, &stderr); code != 0 {
		t.Fatalf("exit = %d, want 0; stderr: %s", code, stderr.String())
	}
	if !strings.Contains(stdout.String(), "internal/p.a") {
		t.Errorf("graph output missing caller node:\n%s", stdout.String())
	}
}

func TestRuleSelection(t *testing.T) {
	root := writeModule(t, map[string]string{"internal/p/p.go": dirtyFile})
	chdir(t, root)
	var stdout, stderr bytes.Buffer
	if code := run([]string{"-rules", "no-global-rand"}, &stdout, &stderr); code != 1 {
		t.Fatalf("exit = %d, want 1", code)
	}
	if strings.Contains(stdout.String(), "no-wall-clock") {
		t.Errorf("unselected rule ran: %s", stdout.String())
	}
	stdout.Reset()
	stderr.Reset()
	if code := run([]string{"-rules", "no-such-rule"}, &stdout, &stderr); code != 2 {
		t.Fatalf("unknown rule: exit = %d, want 2; stderr: %s", code, stderr.String())
	}
	if !strings.Contains(stderr.String(), "unknown rule") {
		t.Errorf("stderr missing unknown-rule error: %s", stderr.String())
	}
}

func TestListRules(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if code := run([]string{"-list"}, &stdout, &stderr); code != 0 {
		t.Fatalf("exit = %d, want 0", code)
	}
	for _, rule := range []string{
		"no-wall-clock", "no-global-rand", "ordered-map-range",
		"checked-errors-in-store",
		"determinism-taint", "ticket-lifecycle",
		"no-lock-across-commit", "goroutine-ownership",
	} {
		if !strings.Contains(stdout.String(), rule) {
			t.Errorf("-list output missing %s:\n%s", rule, stdout.String())
		}
	}
}

func TestLoadErrorExitsTwo(t *testing.T) {
	root := writeModule(t, map[string]string{"internal/p/p.go": "package p\n\nfunc broken( {\n"})
	chdir(t, root)
	var stdout, stderr bytes.Buffer
	if code := run(nil, &stdout, &stderr); code != 2 {
		t.Fatalf("exit = %d, want 2; stderr: %s", code, stderr.String())
	}
}
