// Checkpoint: operating CrowdLearn across a process crash. The system
// runs a campaign against a durable state store — every committed cycle
// is appended to a write-ahead log and a checkpoint is written every 8
// cycles — then the program "crashes" mid-campaign: the system and all
// of its in-memory state (expert weights and parameters, bandit
// statistics, budget position, the trained CQC model) are simply
// dropped. A "new process" opens the same state directory, recovers —
// newest good checkpoint plus deterministic replay of the logged cycles
// beyond it — and finishes the campaign without retraining and without
// resetting the crowdsourcing budget.
package main

import (
	"fmt"
	"io"
	"log"
	"os"

	crowdlearn "github.com/crowdlearn/crowdlearn"
)

func main() {
	if err := run(); err != nil {
		log.Fatal(err)
	}
}

func run() error {
	dir, err := os.MkdirTemp("", "crowdlearn-state-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)

	lab, err := crowdlearn.NewLab(crowdlearn.DefaultLabConfig())
	if err != nil {
		return err
	}

	// ---- process 1: run with persistence, then crash mid-campaign ----
	st, err := crowdlearn.OpenStateStore(crowdlearn.StateStoreOptions{Dir: dir})
	if err != nil {
		return err
	}
	var sys *crowdlearn.System
	journal := crowdlearn.NewStateJournal(st, 8,
		func(w io.Writer) error { return sys.SaveState(w) }, nil, nil)
	sys, err = lab.NewSystemWith(func(cfg *crowdlearn.SystemConfig) { cfg.Journal = journal })
	if err != nil {
		return err
	}

	phase1 := crowdlearn.CampaignConfig{Cycles: 20, ImagesPerCycle: 10}
	first, err := crowdlearn.RunCampaign(sys, lab.Dataset.Test[:200], phase1)
	if err != nil {
		return err
	}
	m1, err := crowdlearn.ComputeMetrics(first.TrueLabels(), first.PredictedLabels())
	if err != nil {
		return err
	}
	fmt.Printf("phase 1: 20 cycles, accuracy %.3f, spent $%.2f, budget left $%.2f\n",
		m1.Accuracy, first.TotalSpend(), sys.Policy().RemainingBudget())

	// Crash. The last checkpoint covers 16 cycles; cycles 16..19 exist
	// only as write-ahead-log records. Nothing in memory survives.
	if err := st.Close(); err != nil {
		return err
	}
	sys = nil
	fmt.Println("-- simulated crash: process state dropped; only the state directory survives --")

	// ---- process 2: open the directory, recover, continue ----
	st2, err := crowdlearn.OpenStateStore(crowdlearn.StateStoreOptions{Dir: dir})
	if err != nil {
		return err
	}
	defer st2.Close()
	// The replacement process rebuilds the same lab (same seeds) and a
	// fresh system, then recovers the crashed process's learned state.
	// The checkpoint restores, so the system never retrains
	// (bootstrapped=false).
	restored, err := lab.NewSystem()
	if err != nil {
		return err
	}
	report, err := st2.Recover(restored, crowdlearn.RecoverOptions{
		TrainSamples:   crowdlearn.SamplesFromImages(lab.Dataset.Train),
		Registry:       lab.Dataset.Test,
		ResyncPlatform: true,
	})
	if err != nil {
		return err
	}
	fmt.Printf("recovered: outcome=%s checkpointCycles=%d walReplayed=%d nextCycle=%d bootstrapped=%v\n",
		report.Outcome, report.CheckpointCycles, report.CyclesReplayed, report.NextCycle, report.Bootstrapped)
	fmt.Printf("restored: budget left $%.2f (carried over)\n", restored.Policy().RemainingBudget())

	phase2 := crowdlearn.CampaignConfig{Cycles: 20, ImagesPerCycle: 10, StartCycle: report.NextCycle}
	second, err := crowdlearn.RunCampaign(restored, lab.Dataset.Test[200:400], phase2)
	if err != nil {
		return err
	}
	m2, err := crowdlearn.ComputeMetrics(second.TrueLabels(), second.PredictedLabels())
	if err != nil {
		return err
	}
	fmt.Printf("phase 2 (after crash recovery): 20 cycles, accuracy %.3f, total spend $%.2f\n",
		m2.Accuracy, first.TotalSpend()+second.TotalSpend())
	return nil
}
