package cqc

import (
	"bytes"
	"reflect"
	"testing"

	"github.com/crowdlearn/crowdlearn/internal/truth"
)

func TestCQCSaveLoadRoundtrip(t *testing.T) {
	pilot, _, _ := pilotFixture(t)
	c := New(DefaultConfig())
	if err := c.Train(pilot.AllResults()); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := c.SaveState(&buf); err != nil {
		t.Fatal(err)
	}
	fresh := New(DefaultConfig())
	if err := fresh.LoadState(&buf); err != nil {
		t.Fatal(err)
	}
	if !fresh.Trained() {
		t.Fatal("restored CQC must be trained")
	}
	batch := pilot.AllResults()[:40]
	a, err := c.Aggregate(batch)
	if err != nil {
		t.Fatal(err)
	}
	b, err := fresh.Aggregate(batch)
	if err != nil {
		t.Fatal(err)
	}
	for i := range a {
		if truth.Decide(a[i]) != truth.Decide(b[i]) {
			t.Fatal("restored CQC decides differently")
		}
		for j := range a[i] {
			if a[i][j] != b[i][j] {
				t.Fatal("restored CQC distribution differs")
			}
		}
	}
}

func TestCQCLoadRejectsFlagMismatch(t *testing.T) {
	pilot, _, _ := pilotFixture(t)
	c := New(DefaultConfig())
	if err := c.Train(pilot.AllResults()); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := c.SaveState(&buf); err != nil {
		t.Fatal(err)
	}
	cfg := DefaultConfig()
	cfg.UseQuestionnaire = false
	ablated := New(cfg)
	if err := ablated.LoadState(&buf); err == nil {
		t.Error("questionnaire-flag mismatch must be rejected")
	}
}

func TestCQCUntrainedRoundtrip(t *testing.T) {
	c := New(DefaultConfig())
	var buf bytes.Buffer
	if err := c.SaveState(&buf); err != nil {
		t.Fatal(err)
	}
	fresh := New(DefaultConfig())
	if err := fresh.LoadState(&buf); err != nil {
		t.Fatal(err)
	}
	if fresh.Trained() {
		t.Error("restored untrained CQC must stay untrained")
	}
}

func TestCQCLoadRejectsGarbage(t *testing.T) {
	c := New(DefaultConfig())
	if err := c.LoadState(bytes.NewReader([]byte("nope"))); err == nil {
		t.Error("garbage must be rejected")
	}
}

// TestCQCRestoreIsFixedPoint: a trained GBDT model loaded into an
// untrained module must save the same bytes and aggregate every pilot
// response exactly as the module that trained it. Bootstrap's CQC
// training reaches a restarted service only through this round trip.
func TestCQCRestoreIsFixedPoint(t *testing.T) {
	pilot, _, _ := pilotFixture(t)
	c := New(DefaultConfig())
	if err := c.Train(pilot.AllResults()); err != nil {
		t.Fatal(err)
	}
	var saved bytes.Buffer
	if err := c.SaveState(&saved); err != nil {
		t.Fatal(err)
	}
	fresh := New(DefaultConfig())
	if err := fresh.LoadState(bytes.NewReader(saved.Bytes())); err != nil {
		t.Fatal(err)
	}
	var resaved bytes.Buffer
	if err := fresh.SaveState(&resaved); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(resaved.Bytes(), saved.Bytes()) {
		t.Fatal("loaded CQC saves different bytes")
	}
	results := pilot.AllResults()
	a, err := c.Aggregate(results)
	if err != nil {
		t.Fatal(err)
	}
	b, err := fresh.Aggregate(results)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a, b) {
		t.Error("loaded CQC aggregates the pilot responses differently")
	}
	if !reflect.DeepEqual(c.FeatureImportance(), fresh.FeatureImportance()) {
		t.Error("loaded CQC reports different feature importance")
	}
}
