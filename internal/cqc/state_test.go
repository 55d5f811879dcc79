package cqc

import (
	"bytes"
	"crypto/sha256"
	"fmt"
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

// goldenCQC pins the SHA-256 of SaveState after training on the default
// pilot study, per configuration. The hashes were captured from the
// split search that sorted each node with sort.Slice; the pinned sort
// that replaced it must leave vote-fraction ties, and so every leaf
// weight, exactly where they were.
var goldenCQC = []struct {
	questionnaire bool
	earlyStopping int
	maxDepth      int
	want          string
}{
	{true, 0, 4, "01e1d4f1fc015685121bba1eb59de201bfb945ab29122cb79cdbedba042131cb"},
	{false, 0, 4, "90a800d98c18d2d5137669fa358ab36627d5ba6559f015f2b9c71c0dee4c7bb8"},
	{true, 5, 4, "28648892cc25d234d3f54da35c8c05862316b8bddfdca07cdf250c6bdd0c9043"},
	{true, 0, 7, "7cfdd340692ee0791f844223aa8b53c258557f14910970f5122bf501cc265b11"},
	{false, 5, 7, "d69e64990e78a5c3d19b634a9fbbf1ab4d18665e53bc021a1471d9b6cd641e36"},
}

// TestTrainBitIdenticalGolden: the trained model's bytes match the
// golden hashes at every worker count, whether the count comes from the
// configuration or from TrainWithWorkers.
func TestTrainBitIdenticalGolden(t *testing.T) {
	pilot, _, _ := pilotFixture(t)
	results := pilot.AllResults()
	for _, g := range goldenCQC {
		for _, workers := range []int{1, 2, 4} {
			cfg := DefaultConfig()
			cfg.UseQuestionnaire = g.questionnaire
			cfg.GBDT.EarlyStoppingRounds = g.earlyStopping
			cfg.GBDT.MaxDepth = g.maxDepth
			cfg.GBDT.Workers = workers
			configured := New(cfg)
			if err := configured.Train(results); err != nil {
				t.Fatal(err)
			}
			cfg.GBDT.Workers = 0
			overridden := New(cfg)
			if err := overridden.TrainWithWorkers(results, workers); err != nil {
				t.Fatal(err)
			}
			for name, c := range map[string]*CQC{"configured": configured, "override": overridden} {
				var buf bytes.Buffer
				if err := c.SaveState(&buf); err != nil {
					t.Fatal(err)
				}
				if got := fmt.Sprintf("%x", sha256.Sum256(buf.Bytes())); got != g.want {
					t.Errorf("%+v workers=%d (%s): hash %s, want %s", g, workers, name, got, g.want)
				}
			}
		}
	}
}
