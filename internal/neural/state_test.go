package neural

import (
	"bytes"
	"encoding/gob"
	"testing"
)

func TestSaveLoadRoundtrip(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Epochs = 30
	n := MustNew(4, 3, cfg)
	if _, err := n.Train(syntheticClusters(1, 200)); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := n.Save(&buf); err != nil {
		t.Fatal(err)
	}
	restored, err := Load(&buf)
	if err != nil {
		t.Fatal(err)
	}
	probe := []float64{1.5, 0.2, -0.3, 0.8}
	a, b := n.Predict(probe), restored.Predict(probe)
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("restored prediction differs: %v vs %v", a, b)
		}
	}
	if restored.NumParameters() != n.NumParameters() {
		t.Error("parameter count changed across roundtrip")
	}
}

func TestRestoredNetworkCanContinueTraining(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Epochs = 10
	n := MustNew(4, 3, cfg)
	train := syntheticClusters(2, 150)
	if _, err := n.Train(train); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := n.Save(&buf); err != nil {
		t.Fatal(err)
	}
	restored, err := Load(&buf)
	if err != nil {
		t.Fatal(err)
	}
	loss, err := restored.Train(train)
	if err != nil {
		t.Fatal(err)
	}
	if loss > 1.0 {
		t.Errorf("restored network lost its training: loss %v", loss)
	}
}

func TestFromStateValidation(t *testing.T) {
	n := MustNew(4, 3, DefaultConfig())
	good := n.State()

	tests := []struct {
		name   string
		mutate func(*State)
	}{
		{"zero input dim", func(s *State) { s.InDim = 0 }},
		{"one class", func(s *State) { s.Classes = 1 }},
		{"no layers", func(s *State) { s.Layers = nil }},
		{"layer count mismatch", func(s *State) { s.Layers = s.Layers[:1] }},
		{"layer shape mismatch", func(s *State) { s.Layers[0].In = 99 }},
		{"weight length mismatch", func(s *State) { s.Layers[0].W = s.Layers[0].W[:1] }},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			s := n.State() // fresh deep copy per case
			tt.mutate(&s)
			if _, err := FromState(s); err == nil {
				t.Errorf("%s should be rejected", tt.name)
			}
		})
	}
	if _, err := FromState(good); err != nil {
		t.Fatalf("unmutated state rejected: %v", err)
	}
}

func TestLoadRejectsGarbage(t *testing.T) {
	if _, err := Load(bytes.NewReader([]byte("not a gob stream"))); err == nil {
		t.Error("garbage input must be rejected")
	}
}

func TestStateIsDeepCopy(t *testing.T) {
	n := MustNew(3, 2, DefaultConfig())
	s := n.State()
	s.Layers[0].W[0] += 100
	s2 := n.State()
	if s2.Layers[0].W[0] == s.Layers[0].W[0] {
		t.Error("State must deep-copy parameters")
	}
}

// TestLoadAcceptsLegacyOptimizerFields: snapshots written while the
// network still carried an optimizer choice have Config.Optimizer,
// LayerState.MW/MB and State.AdamStep in their gob type. Gob drops
// fields the destination lacks, so they load into the same network.
func TestLoadAcceptsLegacyOptimizerFields(t *testing.T) {
	type legacyConfig struct {
		Hidden                              []int
		HiddenActivation                    Activation
		Optimizer                           int
		LearningRate, Momentum, WeightDecay float64
		Epochs, BatchSize                   int
		Seed                                int64
		Workers                             int
	}
	type legacyLayer struct {
		In, Out              int
		Activation           Activation
		W, B, VW, VB, MW, MB []float64
	}
	type legacyState struct {
		Config         legacyConfig
		InDim, Classes int
		Layers         []legacyLayer
		AdamStep       int
		RNGDraws       uint64
	}
	cfg := DefaultConfig()
	cfg.Epochs = 5
	n := MustNew(4, 3, cfg)
	if _, err := n.Train(syntheticClusters(3, 60)); err != nil {
		t.Fatal(err)
	}
	s := n.State()
	old := legacyState{
		Config: legacyConfig{
			Hidden: s.Config.Hidden, HiddenActivation: s.Config.HiddenActivation,
			LearningRate: s.Config.LearningRate, Momentum: s.Config.Momentum, WeightDecay: s.Config.WeightDecay,
			Epochs: s.Config.Epochs, BatchSize: s.Config.BatchSize, Seed: s.Config.Seed,
		},
		InDim: s.InDim, Classes: s.Classes, RNGDraws: s.RNGDraws,
	}
	for _, l := range s.Layers {
		old.Layers = append(old.Layers, legacyLayer{In: l.In, Out: l.Out, Activation: l.Activation, W: l.W, B: l.B, VW: l.VW, VB: l.VB})
	}
	var legacy, current bytes.Buffer
	if err := gob.NewEncoder(&legacy).Encode(old); err != nil {
		t.Fatal(err)
	}
	restored, err := Load(&legacy)
	if err != nil {
		t.Fatal(err)
	}
	if err := n.Save(&current); err != nil {
		t.Fatal(err)
	}
	var again bytes.Buffer
	if err := restored.Save(&again); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(again.Bytes(), current.Bytes()) {
		t.Error("network loaded from a legacy snapshot saves differently from the original")
	}
}
