package main

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"github.com/crowdlearn/crowdlearn/internal/service"
	"github.com/crowdlearn/crowdlearn/internal/trajectory"
)

// TestRunStepCountsUndecodableAnswersAsErrors serves one request per
// case: a 200 is an answer only when it decodes into one assessment per
// image of the batch.
func TestRunStepCountsUndecodableAnswersAsErrors(t *testing.T) {
	full, err := json.Marshal(service.Response{Assessments: make([]service.Assessment, batchSize)})
	if err != nil {
		t.Fatal(err)
	}
	short, err := json.Marshal(service.Response{Assessments: make([]service.Assessment, batchSize-1)})
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name      string
		body      string
		errors    int
		completed int
	}{
		{"not-json", "not-json", 1, 0},
		{"short", string(short), 1, 0},
		{"full", string(full), 0, 1},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
				w.Write([]byte(tc.body))
			}))
			defer srv.Close()
			// 100 req/s for 10 ms offers exactly one request.
			rec := runStep(srv.URL, srv.Client(), [][]byte{[]byte(`{}`)}, 1, 100, 10*time.Millisecond, time.Minute)
			if rec.Offered != 1 || rec.Errors != tc.errors || rec.Completed != tc.completed {
				t.Errorf("offered/errors/completed = %d/%d/%d, want 1/%d/%d",
					rec.Offered, rec.Errors, rec.Completed, tc.errors, tc.completed)
			}
			if tc.completed == 0 && rec.GoodputRPS != 0 {
				t.Errorf("goodput = %v, want 0", rec.GoodputRPS)
			}
		})
	}
}

// report builds a synthetic record with the given arms' goodput ratios.
func report(admissionRatio, baselineRatio float64) *Report {
	return &Report{Arms: []ArmReport{
		{Name: "admission", Admission: true, GoodputRatio: admissionRatio},
		{Name: "baseline", GoodputRatio: baselineRatio},
	}}
}

// commit writes rep as the current record of a fresh trajectory file.
func commit(t *testing.T, rep *Report) string {
	t.Helper()
	doc, err := trajectory.Append(nil, schema, rep, retain)
	if err != nil {
		t.Fatal(err)
	}
	data, err := doc.Marshal()
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "BENCH_service.json")
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

func TestGateCommittedRecord(t *testing.T) {
	if err := gateCommitted(commit(t, report(0.79, 0.1))); err == nil ||
		!strings.Contains(err.Error(), "committed admission goodput ratio at 2x = 0.79, want >= 0.8") {
		t.Errorf("committed admission ratio 0.79 = %v, want a gate failure", err)
	}
	if err := gateCommitted(commit(t, report(0.8, 0.9))); err != nil {
		t.Errorf("committed admission ratio 0.8 = %v, want a pass (the committed baseline is not gated)", err)
	}
	if err := gateCommitted(filepath.Join(t.TempDir(), "absent.json")); err == nil {
		t.Error("a missing committed document passed the gate")
	}
}

func TestGateFreshRecord(t *testing.T) {
	if err := gateRecord("fresh", report(0.9, 0.51), true); err == nil ||
		!strings.Contains(err.Error(), "fresh baseline goodput ratio at 2x = 0.51, want <= 0.5") {
		t.Errorf("fresh baseline ratio 0.51 = %v, want a gate failure", err)
	}
	if err := gateRecord("fresh", report(0.79, 0.1), true); err == nil {
		t.Error("fresh admission ratio 0.79 passed the gate")
	}
	if err := gateRecord("fresh", report(0.8, 0.5), true); err != nil {
		t.Errorf("fresh ratios 0.8/0.5 = %v, want a pass", err)
	}
	if err := gateRecord("fresh", &Report{Arms: []ArmReport{{Name: "admission", GoodputRatio: 1}}}, true); err == nil {
		t.Error("a fresh record without a baseline arm passed the gate")
	}
}
