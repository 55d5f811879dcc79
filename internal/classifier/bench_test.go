package classifier

import (
	"testing"

	"github.com/crowdlearn/crowdlearn/internal/imagery"
	"github.com/crowdlearn/crowdlearn/internal/mathx"
)

// BenchmarkExpertRetrain times one MIC retraining pass per committee
// expert: Update's 8 epochs over a 400-sample batch of soft targets, the
// size of a full retraining memory (200 crowd samples plus as many
// replayed training samples), with sequential inner gradients as under
// MIC's expert-level fan-out.
func BenchmarkExpertRetrain(b *testing.B) {
	ds, err := imagery.Generate(imagery.DefaultConfig())
	if err != nil {
		b.Fatal(err)
	}
	samples := SamplesFromImages(ds.Train)
	for len(samples) < 400 {
		samples = append(samples, samples...)
	}
	samples = samples[:400]
	for i := range samples {
		if i%2 == 1 { // crowd truths are distributions, not one-hots
			samples[i].Target = mathx.Normalized([]float64{samples[i].Target[0] + 0.2, samples[i].Target[1] + 0.1, samples[i].Target[2]})
		}
	}
	experts := []struct {
		name string
		new  func(imagery.Dims, Options) Expert
	}{{"vgg16", NewVGG16}, {"bovw", NewBoVW}, {"ddm", NewDDM}}
	for _, x := range experts {
		b.Run(x.name, func(b *testing.B) {
			e := x.new(imagery.DefaultDims, Options{Seed: 1, Epochs: 5, Workers: 1})
			if err := e.Train(samples); err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := e.Update(samples); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
