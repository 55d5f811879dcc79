package neural

import (
	"encoding/gob"
	"errors"
	"fmt"
	"io"

	"github.com/crowdlearn/crowdlearn/internal/mathx"
)

// LayerState is the serialisable form of one dense layer.
type LayerState struct {
	In, Out    int
	Activation Activation
	W, B       []float64
	VW, VB     []float64
}

// State is the serialisable form of a Network: everything needed to
// resume inference and training, including the position of the seeded
// RNG stream so a restored network shuffles future epochs exactly as
// the original would have.
type State struct {
	Config  Config
	InDim   int
	Classes int
	Layers  []LayerState
	// RNGDraws is the absolute number of values the network has drawn
	// from its seeded stream (weight init included). FromState
	// fast-forwards a fresh same-seed stream to this position, so
	// training after a restore is byte-identical to training without
	// one. Zero in snapshots written before this field existed: those
	// restore with the pre-existing replay-from-reseed behaviour.
	RNGDraws uint64
}

// State captures the network's current parameters.
func (n *Network) State() State {
	s := State{
		Config:   n.cfg,
		InDim:    n.inDim,
		Classes:  n.classes,
		Layers:   make([]LayerState, len(n.layers)),
		RNGDraws: n.rngSrc.Pos(),
	}
	// Execution parallelism is not model state: a checkpoint taken at any
	// worker count must serialise identically.
	s.Config.Workers = 0
	for i, l := range n.layers {
		s.Layers[i] = LayerState{
			In:         l.in,
			Out:        l.out,
			Activation: l.act,
			W:          mathx.Clone(l.w),
			B:          mathx.Clone(l.b),
			VW:         mathx.Clone(l.vw),
			VB:         mathx.Clone(l.vb),
		}
	}
	return s
}

// FromState reconstructs a network from a snapshot.
func FromState(s State) (*Network, error) {
	if s.InDim <= 0 || s.Classes < 2 {
		return nil, fmt.Errorf("neural: invalid state shape in=%d classes=%d", s.InDim, s.Classes)
	}
	if len(s.Layers) == 0 {
		return nil, errors.New("neural: state has no layers")
	}
	n, err := New(s.InDim, s.Classes, s.Config)
	if err != nil {
		return nil, err
	}
	if len(n.layers) != len(s.Layers) {
		return nil, fmt.Errorf("neural: state has %d layers but config builds %d", len(s.Layers), len(n.layers))
	}
	for i, ls := range s.Layers {
		l := n.layers[i]
		if ls.In != l.in || ls.Out != l.out {
			return nil, fmt.Errorf("neural: layer %d shape %dx%d does not match config %dx%d",
				i, ls.In, ls.Out, l.in, l.out)
		}
		if len(ls.W) != l.in*l.out || len(ls.B) != l.out {
			return nil, fmt.Errorf("neural: layer %d parameter lengths inconsistent", i)
		}
		l.act = ls.Activation
		copy(l.w, ls.W)
		copy(l.b, ls.B)
		if len(ls.VW) == len(l.vw) {
			copy(l.vw, ls.VW)
		}
		if len(ls.VB) == len(l.vb) {
			copy(l.vb, ls.VB)
		}
	}
	// New has already consumed the weight-init draws; advance the
	// remaining distance to the snapshot's absolute position. A
	// snapshot from before RNGDraws existed decodes as zero and keeps
	// the legacy reseed-from-Config behaviour.
	if s.RNGDraws > n.rngSrc.Pos() {
		n.rngSrc.Skip(s.RNGDraws - n.rngSrc.Pos())
	}
	return n, nil
}

// Save writes the network state to w using encoding/gob.
func (n *Network) Save(w io.Writer) error {
	if err := gob.NewEncoder(w).Encode(n.State()); err != nil {
		return fmt.Errorf("neural: save: %w", err)
	}
	return nil
}

// Load reads a network previously written with Save.
func Load(r io.Reader) (*Network, error) {
	var s State
	if err := gob.NewDecoder(r).Decode(&s); err != nil {
		return nil, fmt.Errorf("neural: load: %w", err)
	}
	return FromState(s)
}
