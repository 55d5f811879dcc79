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

	// Each "process" brings its system up the same way: open the state
	// directory, build a fresh system behind its journal (a checkpoint
	// every 8 cycles) and recover whatever the directory holds. The
	// replacement process rebuilds the same lab (same seeds), so it
	// recovers the crashed process's learned state exactly.
	open := func() (*crowdlearn.DurableSystem, error) {
		return crowdlearn.OpenDurableSystem(crowdlearn.StateStoreOptions{Dir: dir}, 8,
			func(j crowdlearn.CycleJournal) (*crowdlearn.System, error) {
				return lab.NewSystemWith(func(cfg *crowdlearn.SystemConfig) { cfg.Journal = j })
			},
			crowdlearn.RecoverOptions{
				TrainSamples:   crowdlearn.SamplesFromImages(lab.Dataset.Train),
				Registry:       lab.Dataset.Test,
				ResyncPlatform: true,
			})
	}

	// ---- process 1: run with persistence, then crash mid-campaign ----
	// The directory is empty, so recovery trains the bootstrap model.
	first, err := open()
	if err != nil {
		return err
	}
	sys := first.Sys

	phase1 := crowdlearn.CampaignConfig{Cycles: 20, ImagesPerCycle: 10}
	res1, err := crowdlearn.RunCampaign(sys, lab.Dataset.Test[:200], phase1)
	if err != nil {
		return err
	}
	m1, err := crowdlearn.ComputeMetrics(res1.TrueLabels(), res1.PredictedLabels())
	if err != nil {
		return err
	}
	fmt.Printf("phase 1: 20 cycles, accuracy %.3f, spent $%.2f, budget left $%.2f\n",
		m1.Accuracy, res1.TotalSpend(), sys.Policy().RemainingBudget())

	// Crash. The last checkpoint covers 16 cycles; cycles 16..19 exist
	// only as write-ahead-log records. Nothing in memory survives.
	if err := first.Store.Close(); err != nil {
		return err
	}
	first, sys = nil, nil
	fmt.Println("-- simulated crash: process state dropped; only the state directory survives --")

	// ---- process 2: open the directory, recover, continue ----
	// The checkpoint restores, so the system never retrains
	// (bootstrapped=false).
	second, err := open()
	if err != nil {
		return err
	}
	defer second.Store.Close()
	restored, report := second.Sys, second.Report
	fmt.Printf("recovered: outcome=%s checkpointCycles=%d walReplayed=%d nextCycle=%d bootstrapped=%v\n",
		report.Outcome, report.CheckpointCycles, report.CyclesReplayed, report.NextCycle, report.Bootstrapped)
	fmt.Printf("restored: budget left $%.2f (carried over)\n", restored.Policy().RemainingBudget())

	phase2 := crowdlearn.CampaignConfig{Cycles: 20, ImagesPerCycle: 10, StartCycle: report.NextCycle}
	res2, err := crowdlearn.RunCampaign(restored, lab.Dataset.Test[200:400], phase2)
	if err != nil {
		return err
	}
	m2, err := crowdlearn.ComputeMetrics(res2.TrueLabels(), res2.PredictedLabels())
	if err != nil {
		return err
	}
	fmt.Printf("phase 2 (after crash recovery): 20 cycles, accuracy %.3f, total spend $%.2f\n",
		m2.Accuracy, res1.TotalSpend()+res2.TotalSpend())
	return nil
}
