package trajectory

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// appendFile appends rec to the document at path the way the tools do:
// read what is there, append, write back.
func appendFile(t *testing.T, path, schema string, rec any, retain int, accept ...string) *Document {
	t.Helper()
	prev, err := Read(path, append(accept, schema)...)
	if err != nil {
		t.Fatal(err)
	}
	doc, err := Append(prev, schema, rec, retain)
	if err != nil {
		t.Fatal(err)
	}
	data, err := doc.Marshal()
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	back, err := Read(path, schema)
	if err != nil {
		t.Fatal(err)
	}
	return back
}

func TestAppendPutsNewestFirstAndBoundsHistory(t *testing.T) {
	path := filepath.Join(t.TempDir(), "BENCH.json")
	for i := 0; i < 5; i++ {
		appendFile(t, path, "s/1", map[string]int{"run": i}, 3)
	}
	doc, err := Read(path, "s/1")
	if err != nil {
		t.Fatal(err)
	}
	var cur struct{ Run int }
	if err := json.Unmarshal(doc.Current, &cur); err != nil || cur.Run != 4 {
		t.Fatalf("current = %+v (%v), want run 4", cur, err)
	}
	if len(doc.History) != 3 {
		t.Fatalf("history holds %d records, want 3", len(doc.History))
	}
	for i, raw := range doc.History {
		var h struct{ Run int }
		if err := json.Unmarshal(raw, &h); err != nil {
			t.Fatal(err)
		}
		if want := 3 - i; h.Run != want {
			t.Errorf("history[%d] is run %d, want %d", i, h.Run, want)
		}
	}
}

func TestReadMissingIsEmptyAndWrongSchemaErrors(t *testing.T) {
	dir := t.TempDir()
	if doc, err := Read(filepath.Join(dir, "absent.json"), "s/1"); doc != nil || err != nil {
		t.Errorf("missing file = (%v, %v), want (nil, nil)", doc, err)
	}
	path := filepath.Join(dir, "doc.json")
	appendFile(t, path, "s/1", map[string]int{"run": 0}, 3)
	if _, err := Read(path, "s/2"); err == nil || !strings.Contains(err.Error(), `"s/1"`) {
		t.Errorf("wrong schema = %v, want an error naming it", err)
	}
	for name, body := range map[string]string{
		"malformed":  "{not json",
		"no-current": `{"schema": "s/1"}`,
	} {
		bad := filepath.Join(dir, name+".json")
		if err := os.WriteFile(bad, []byte(body), 0o644); err != nil {
			t.Fatal(err)
		}
		if _, err := Read(bad, "s/1"); err == nil {
			t.Errorf("%s document read without error", name)
		}
	}
}

// TestHistorySurvivesRecordFormatChange appends records of a new type
// under a new schema onto a document of old-format records: the old
// records, fields the new type lacks included, come back byte-identical.
func TestHistorySurvivesRecordFormatChange(t *testing.T) {
	type oldRecord struct {
		ServiceTimeMs  float64 `json:"serviceTimeMs"`
		DegradedTimeMs float64 `json:"degradedTimeMs"`
		Note           string  `json:"note"`
	}
	type newRecord struct {
		GoMaxProcs int `json:"goMaxProcs"`
	}
	path := filepath.Join(t.TempDir(), "doc.json")
	olds := []oldRecord{{4, 0.2, "first <stub>"}, {4, 0.25, "second & last"}}
	for _, r := range olds {
		appendFile(t, path, "load/1", r, 12)
	}
	appendFile(t, path, "load/2", newRecord{2}, 12, "load/1")
	doc := appendFile(t, path, "load/2", newRecord{1}, 12)

	if len(doc.History) != 3 {
		t.Fatalf("history holds %d records, want 3", len(doc.History))
	}
	for i, r := range olds {
		want, err := json.Marshal(r)
		if err != nil {
			t.Fatal(err)
		}
		var got bytes.Buffer
		if err := json.Compact(&got, doc.History[len(doc.History)-1-i]); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got.Bytes(), want) {
			t.Errorf("old record %d = %s, want %s", i, got.Bytes(), want)
		}
	}
}

func TestGateRuleBothDirections(t *testing.T) {
	cases := []struct {
		c    Check
		fail bool
	}{
		{Check{Name: "ns/op", Value: 120, Limit: 120, Better: Lower}, false},
		{Check{Name: "ns/op", Value: 121, Limit: 120, Better: Lower}, true},
		{Check{Name: "ns/op", Value: 80, Limit: 120, Better: Lower}, false},
		{Check{Name: "ratio", Value: 0.8, Limit: 0.8, Better: Higher}, false},
		{Check{Name: "ratio", Value: 0.79, Limit: 0.8, Better: Higher}, true},
		{Check{Name: "ratio", Value: 1.3, Limit: 0.8, Better: Higher}, false},
	}
	for _, tc := range cases {
		if got := tc.c.Failed(); got != tc.fail {
			t.Errorf("%s: Failed() = %v, want %v", tc.c, got, tc.fail)
		}
		err := Gate([]Check{tc.c})
		if (err != nil) != tc.fail {
			t.Errorf("%s: Gate = %v, want failure %v", tc.c, err, tc.fail)
		}
	}
	err := Gate([]Check{cases[1].c, cases[0].c, cases[4].c})
	if err == nil {
		t.Fatal("two failed checks passed the gate")
	}
	want := "GATE FAIL: ns/op = 121, want <= 120\nGATE FAIL: ratio = 0.79, want >= 0.8"
	if err.Error() != want {
		t.Errorf("gate message = %q, want %q", err, want)
	}
}
