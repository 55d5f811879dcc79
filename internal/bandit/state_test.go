package bandit

import (
	"bytes"
	"testing"
	"time"

	"github.com/crowdlearn/crowdlearn/internal/crowd"
)

func trainedPolicy(t *testing.T) *UCBALP {
	t.Helper()
	cfg := DefaultConfig()
	u, err := NewUCBALP(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 30; i++ {
		ctx := crowd.TemporalContext(i % crowd.NumContexts)
		inc, err := u.SelectIncentive(ctx)
		if err != nil {
			t.Fatal(err)
		}
		u.Observe(ctx, inc, time.Duration(200+10*i)*time.Second, cfg.QueriesPerRound)
	}
	return u
}

func TestBanditSaveLoadRoundtrip(t *testing.T) {
	u := trainedPolicy(t)
	var buf bytes.Buffer
	if err := u.Save(&buf); err != nil {
		t.Fatal(err)
	}
	restored, err := Load(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if restored.RemainingBudget() != u.RemainingBudget() {
		t.Errorf("remaining budget %v vs %v", restored.RemainingBudget(), u.RemainingBudget())
	}
	if restored.rounds != u.rounds {
		t.Errorf("rounds %d vs %d", restored.rounds, u.rounds)
	}
	for z := 0; z < crowd.NumContexts; z++ {
		for arm := range u.count[z] {
			if restored.count[z][arm] != u.count[z][arm] {
				t.Fatalf("count[%d][%d] differs", z, arm)
			}
			if restored.payoff[z][arm] != u.payoff[z][arm] {
				t.Fatalf("payoff[%d][%d] differs", z, arm)
			}
		}
	}
	// A restored policy must select without error and respect the budget.
	inc, err := restored.SelectIncentive(crowd.Morning)
	if err != nil {
		t.Fatal(err)
	}
	if inc <= 0 {
		t.Error("restored policy selected non-positive incentive")
	}
}

func TestBanditFromStateValidation(t *testing.T) {
	u := trainedPolicy(t)
	tests := []struct {
		name   string
		mutate func(*State)
	}{
		{"arm count mismatch", func(s *State) { s.Count[0] = s.Count[0][:2] }},
		{"negative remaining", func(s *State) { s.Remaining = -1 }},
		{"remaining above budget", func(s *State) { s.Remaining = s.Config.BudgetDollars + 5 }},
		{"negative rounds", func(s *State) { s.Rounds = -2 }},
		{"invalid config", func(s *State) { s.Config.BudgetDollars = -3; s.Remaining = 0 }},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			s := u.State()
			tt.mutate(&s)
			if _, err := FromState(s); err == nil {
				t.Errorf("%s should be rejected", tt.name)
			}
		})
	}
}

func TestBanditLoadRejectsGarbage(t *testing.T) {
	if _, err := Load(bytes.NewReader([]byte("garbage"))); err == nil {
		t.Error("garbage input must be rejected")
	}
}

func TestBanditStateIsDeepCopy(t *testing.T) {
	u := trainedPolicy(t)
	s := u.State()
	s.Count[0][0] += 100
	if u.count[0][0] == s.Count[0][0] {
		t.Error("State must deep-copy statistics")
	}
}

// TestWarmStartedRestoreIsFixedPoint: a warm-started policy saved and
// rebuilt with Load must save the same bytes, and then price the pilot
// study's rounds exactly as the original does. Bootstrap's warm start
// reaches a restarted service only through this round trip.
func TestWarmStartedRestoreIsFixedPoint(t *testing.T) {
	pilot, err := crowd.RunPilot(crowd.MustNewPlatform(crowd.DefaultConfig()), mustDataset(t), crowd.DefaultPilotConfig())
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultConfig()
	u, err := NewUCBALP(cfg)
	if err != nil {
		t.Fatal(err)
	}
	u.WarmStart(pilot)
	var saved bytes.Buffer
	if err := u.Save(&saved); err != nil {
		t.Fatal(err)
	}
	want := append([]byte(nil), saved.Bytes()...)
	restored, err := Load(&saved)
	if err != nil {
		t.Fatal(err)
	}
	var resaved bytes.Buffer
	if err := restored.Save(&resaved); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(resaved.Bytes(), want) {
		t.Fatal("restored warm-started policy saves different bytes")
	}
	for i, cell := range pilot.Cells {
		a, aerr := u.SelectIncentive(cell.Context)
		b, berr := restored.SelectIncentive(cell.Context)
		if a != b || (aerr == nil) != (berr == nil) {
			t.Fatalf("round %d: original priced %v (%v), restored %v (%v)", i, a, aerr, b, berr)
		}
		if aerr != nil {
			continue
		}
		delay := crowd.MeanCompletionDelay(cell.Results)
		u.Observe(cell.Context, a, delay, cfg.QueriesPerRound)
		restored.Observe(cell.Context, b, delay, cfg.QueriesPerRound)
	}
	var after, restoredAfter bytes.Buffer
	if err := u.Save(&after); err != nil {
		t.Fatal(err)
	}
	if err := restored.Save(&restoredAfter); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(after.Bytes(), restoredAfter.Bytes()) {
		t.Error("policies diverged while pricing the pilot rounds")
	}
}
