package neural

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"github.com/crowdlearn/crowdlearn/internal/mathx"
)

// The reference kernels below are the plain loops the blocked kernels
// replaced, kept verbatim: one dot product per output row in forward,
// and one strided column walk per input unit in backprop.

func (a Activation) apply(x float64) float64 {
	switch a {
	case ReLU:
		if x < 0 {
			return 0
		}
		return x
	case Tanh:
		return math.Tanh(x)
	case Identity:
		return x
	default:
		panic(fmt.Sprintf("neural: unknown activation %d", int(a)))
	}
}

func (a Activation) derivative(y float64) float64 {
	switch a {
	case ReLU:
		if y > 0 {
			return 1
		}
		return 0
	case Tanh:
		return 1 - y*y
	case Identity:
		return 1
	default:
		panic(fmt.Sprintf("neural: unknown activation %d", int(a)))
	}
}

func refForward(l *layer, in, out []float64) {
	for o := 0; o < l.out; o++ {
		row := l.w[o*l.in : (o+1)*l.in]
		z := l.b[o] + mathx.Dot(row, in)
		out[o] = l.act.apply(z)
	}
}

func refBackward(l, prev *layer, delta, newDelta, inAct []float64) {
	for i2 := 0; i2 < l.in; i2++ {
		var s float64
		for o := 0; o < l.out; o++ {
			s += delta[o] * l.w[o*l.in+i2]
		}
		newDelta[i2] = s * prev.act.derivative(inAct[i2])
	}
}

func refAccumulate(n *Network, gs []layerGrads, st *exampleStage) {
	for li := len(n.layers) - 1; li >= 0; li-- {
		l := n.layers[li]
		inAct := st.acts[li]
		delta := st.deltas[li]
		for o := 0; o < l.out; o++ {
			d := delta[o]
			if d == 0 {
				continue
			}
			gs[li].gb[o] += d
			row := gs[li].gw[o*l.in : (o+1)*l.in]
			for i2, v := range inAct {
				row[i2] += d * v
			}
		}
	}
}

// kernelValue draws a value that is often one of the special cases the
// kernels must preserve bit for bit: signed zeros, NaN, infinities.
func kernelValue(rng *rand.Rand) float64 {
	switch rng.Intn(16) {
	case 0:
		return 0
	case 1:
		return math.Copysign(0, -1)
	case 2:
		return math.NaN()
	case 3:
		return math.Inf(1 - 2*rng.Intn(2))
	default:
		return rng.NormFloat64()
	}
}

// sameBits returns the first index at which a and b differ in their bit
// patterns, or -1. Any two NaNs match: which operand's payload an
// addition propagates depends on the operand order the compiler picks
// for a commutative instruction, which Go does not specify.
func sameBits(a, b []float64) int {
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) && !(math.IsNaN(a[i]) && math.IsNaN(b[i])) {
			return i
		}
	}
	return -1
}

// TestKernelsMatchReferenceLoops checks the blocked forward and backward
// kernels against the reference loops on random shapes, including
// widths that are not multiples of the block size, inputs and deltas
// with signed zeros and non-finite values, and ReLU units that are dead
// (zero or negative activation, derivative exactly 0).
func TestKernelsMatchReferenceLoops(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	acts := []Activation{ReLU, Tanh, Identity}
	for trial := 0; trial < 2000; trial++ {
		in, out := 1+rng.Intn(13), 1+rng.Intn(13)
		act, prevAct := acts[rng.Intn(len(acts))], acts[rng.Intn(len(acts))]
		special := trial%2 == 0 // half the trials stay finite
		draw := func() float64 {
			if special {
				return kernelValue(rng)
			}
			return rng.NormFloat64()
		}
		l := &layer{in: in, out: out, act: act, w: make([]float64, in*out), b: make([]float64, out)}
		for i := range l.w {
			l.w[i] = draw()
		}
		for i := range l.b {
			l.b[i] = draw()
		}
		x := make([]float64, in)
		for i := range x {
			x[i] = draw()
		}
		want, got := make([]float64, out), make([]float64, out)
		refForward(l, x, want)
		l.forward(x, got)
		if i := sameBits(want, got); i >= 0 {
			t.Fatalf("trial %d (%dx%d %v): forward[%d] = %v, reference %v", trial, in, out, act, i, got[i], want[i])
		}

		// The input activations come from a previous layer of prevAct;
		// for ReLU roughly half the units are dead.
		prev := &layer{act: prevAct}
		inAct := make([]float64, in)
		for i := range inAct {
			inAct[i] = prevAct.apply(draw())
		}
		delta := make([]float64, out)
		for i := range delta {
			delta[i] = draw()
		}
		wantD, gotD := make([]float64, in), make([]float64, in)
		for i := range gotD {
			gotD[i] = rng.NormFloat64() // stale contents must not leak
		}
		refBackward(l, prev, delta, wantD, inAct)
		l.backward(delta, gotD, inAct, prevAct)
		if i := sameBits(wantD, gotD); i >= 0 {
			t.Fatalf("trial %d (%dx%d prev %v): backward[%d] = %v, reference %v", trial, in, out, prevAct, i, gotD[i], wantD[i])
		}
	}
}

// TestAccumulateMatchesReferenceLoop checks the batch-blocked gradient
// accumulation against the per-example reference loop on random
// networks and batch sizes, with staged deltas that include signed
// zeros (skipped) and non-finite values, starting from nonzero
// accumulators.
func TestAccumulateMatchesReferenceLoop(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	for trial := 0; trial < 300; trial++ {
		cfg := DefaultConfig()
		cfg.Hidden = []int{1 + rng.Intn(9), 1 + rng.Intn(9)}[:1+rng.Intn(2)]
		n := MustNew(1+rng.Intn(9), 2+rng.Intn(3), cfg)
		batch := 1 + rng.Intn(19)
		stages := make([]exampleStage, batch)
		for p := range stages {
			stages[p] = n.newExampleStage()
			stages[p].acts[0] = make([]float64, n.inDim)
			for _, a := range stages[p].acts {
				for i := range a {
					a[i] = kernelValue(rng)
				}
			}
			for _, d := range stages[p].deltas {
				for i := range d {
					if rng.Intn(3) == 0 { // sparse, as behind dead ReLU units
						d[i] = math.Copysign(0, float64(rng.Intn(2))-0.5)
					} else {
						d[i] = kernelValue(rng)
					}
				}
			}
		}
		grads := func() []layerGrads {
			gs := make([]layerGrads, len(n.layers))
			r := rand.New(rand.NewSource(int64(trial)))
			for li, l := range n.layers {
				gs[li] = layerGrads{gw: make([]float64, len(l.w)), gb: make([]float64, len(l.b))}
				for i := range gs[li].gw {
					gs[li].gw[i] = r.NormFloat64()
				}
			}
			return gs
		}
		want, got := grads(), grads()
		for p := range stages {
			refAccumulate(n, want, &stages[p])
		}
		n.accumulate(got, stages)
		for li := range want {
			if i := sameBits(want[li].gw, got[li].gw); i >= 0 {
				t.Fatalf("trial %d layer %d: gw[%d] = %v, reference %v", trial, li, i, got[li].gw[i], want[li].gw[i])
			}
			if i := sameBits(want[li].gb, got[li].gb); i >= 0 {
				t.Fatalf("trial %d layer %d: gb[%d] = %v, reference %v", trial, li, i, got[li].gb[i], want[li].gb[i])
			}
		}
	}
}
