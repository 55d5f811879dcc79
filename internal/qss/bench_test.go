package qss

import (
	"testing"

	"github.com/crowdlearn/crowdlearn/internal/imagery"
)

func trainedCommittee(b *testing.B) (*Committee, *imagery.Dataset) {
	b.Helper()
	ds, err := imagery.Generate(imagery.DefaultConfig())
	if err != nil {
		b.Fatal(err)
	}
	return standardCommittee(b, ds), ds
}

func BenchmarkCommitteeVote(b *testing.B) {
	c, ds := trainedCommittee(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.Vote(ds.Test[i%len(ds.Test)])
	}
}

// BenchmarkCommitteeEntropy is the hot scoring path; the pooled vote
// scratch keeps it allocation-free.
func BenchmarkCommitteeEntropy(b *testing.B) {
	c, ds := trainedCommittee(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.Entropy(ds.Test[i%len(ds.Test)])
	}
}

func BenchmarkSelectQuerySet(b *testing.B) {
	c, ds := trainedCommittee(b)
	sel, err := NewSelector(0.2, 1)
	if err != nil {
		b.Fatal(err)
	}
	batch := ds.Test[:10]
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sel.Select(c, batch, 5)
	}
}
