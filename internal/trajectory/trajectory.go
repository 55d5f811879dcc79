// Package trajectory is the committed-record document and the gate rule
// shared by cmd/benchjson (BENCH_parallel.json) and cmd/crowdload
// (BENCH_service.json): {"schema", "current", "history"}, the latest
// record first and the records it replaced after it, newest first.
// Records travel as raw JSON, so one written under an older record
// format keeps every field, byte for byte, through later appends. The
// package is clockless; the tools stamp their own records.
package trajectory

import (
	"encoding/json"
	"errors"
	"fmt"
	"io/fs"
	"os"
	"slices"
)

// Document is one trajectory file.
type Document struct {
	Schema  string            `json:"schema"`
	Current json.RawMessage   `json:"current"`
	History []json.RawMessage `json:"history,omitempty"`
}

// Read loads the document at path. A missing file reads as empty: (nil,
// nil). Malformed JSON, a missing current record or a schema outside
// schemas is an error.
func Read(path string, schemas ...string) (*Document, error) {
	data, err := os.ReadFile(path)
	if errors.Is(err, fs.ErrNotExist) {
		return nil, nil
	}
	if err != nil {
		return nil, err
	}
	var doc Document
	if err := json.Unmarshal(data, &doc); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	if !slices.Contains(schemas, doc.Schema) {
		return nil, fmt.Errorf("%s: schema %q, want one of %q", path, doc.Schema, schemas)
	}
	if len(doc.Current) == 0 || string(doc.Current) == "null" {
		return nil, fmt.Errorf("%s: no current record", path)
	}
	return &doc, nil
}

// Append returns a document with schema whose current record is rec,
// followed by prev's current record and history (prev may be nil),
// keeping at most retain history records.
func Append(prev *Document, schema string, rec any, retain int) (*Document, error) {
	cur, err := json.Marshal(rec)
	if err != nil {
		return nil, err
	}
	doc := &Document{Schema: schema, Current: cur}
	if prev != nil {
		doc.History = append([]json.RawMessage{prev.Current}, prev.History...)
	}
	doc.History = doc.History[:min(len(doc.History), retain)]
	return doc, nil
}

// Marshal renders the document as the committed files hold it: indented
// JSON and a trailing newline.
func (d *Document) Marshal() ([]byte, error) {
	data, err := json.MarshalIndent(d, "", "  ")
	return append(data, '\n'), err
}

// Better is the direction in which a metric improves.
type Better bool

const (
	Lower  Better = false // latencies, allocations
	Higher Better = true  // speedups, goodput ratios
)

// Check is one gated metric: a fresh value and the limit it may not be
// worse than.
type Check struct {
	Name         string
	Value, Limit float64
	Better       Better
}

// Failed reports whether Value is worse than Limit in the metric's
// better direction; a value at the limit passes.
func (c Check) Failed() bool {
	if c.Better == Higher {
		return c.Value < c.Limit
	}
	return c.Value > c.Limit
}

func (c Check) String() string {
	op := "<="
	if c.Better == Higher {
		op = ">="
	}
	return fmt.Sprintf("%s = %.4g, want %s %.4g", c.Name, c.Value, op, c.Limit)
}

// Gate returns one "GATE FAIL" line per failed check, nil when all pass.
func Gate(checks []Check) error {
	var errs []error
	for _, c := range checks {
		if c.Failed() {
			errs = append(errs, fmt.Errorf("GATE FAIL: %s", c))
		}
	}
	return errors.Join(errs...)
}
