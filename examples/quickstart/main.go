// Quickstart: build the evaluation lab, assemble a CrowdLearn system, run
// one sensing cycle, and print what the system decided for each image —
// including which images it chose to ask the crowd about.
package main

import (
	"fmt"
	"log"

	crowdlearn "github.com/crowdlearn/crowdlearn"
)

func main() {
	if err := run(); err != nil {
		log.Fatal(err)
	}
}

func run() error {
	// The lab generates the synthetic disaster-image corpus (960 images,
	// 560 train / 400 test) and runs the MTurk pilot study that
	// characterises the crowd platform.
	lab, err := crowdlearn.NewLab(crowdlearn.DefaultLabConfig())
	if err != nil {
		return err
	}

	// NewSystem bootstraps the system: the first cycle trains the
	// expert committee on the train split, trains the CQC
	// quality-control model on the pilot responses, and warm-starts the
	// incentive bandit.
	sys, err := lab.NewSystem()
	if err != nil {
		return err
	}

	// One sensing cycle: ten fresh images arriving in the evening.
	batch := lab.Dataset.Test[:10]
	out, err := sys.RunCycle(crowdlearn.CycleInput{
		Index:   0,
		Context: crowdlearn.Evening,
		Images:  batch,
	})
	if err != nil {
		return err
	}

	queried := make(map[int]bool, len(out.Queried))
	for _, idx := range out.Queried {
		queried[idx] = true
	}
	fmt.Printf("sensing cycle 0 (evening): %d images, %d sent to the crowd at %s each\n",
		len(batch), len(out.Queried), out.Incentive)
	fmt.Printf("algorithm delay %v, crowd delay %v, spend $%.2f\n\n",
		out.AlgorithmDelay, out.CrowdDelay.Round(1e9), out.SpentDollars)

	labels := out.Labels()
	correct := 0
	for i, im := range batch {
		source := "AI committee"
		if queried[i] {
			source = "crowd (CQC)"
		}
		verdict := "WRONG"
		if labels[i] == im.TrueLabel {
			verdict = "ok"
			correct++
		}
		fmt.Printf("image %3d  truth=%-9s  predicted=%-9s  via %-12s  %s\n",
			im.ID, im.TrueLabel, labels[i], source, verdict)
	}
	fmt.Printf("\ncycle accuracy: %d/%d\n", correct, len(batch))
	return nil
}
