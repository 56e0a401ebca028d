// Package vcg builds the VI Communication Graph of Definition 1: one
// directed graph per voltage island whose vertices are the island's
// cores and whose edge weights blend normalized bandwidth and latency
// tightness,
//
//	h(i,j) = α · bw(i,j)/max_bw + (1−α) · min_lat/lat(i,j),
//
// where max_bw is the largest bandwidth over all flows of the spec,
// min_lat the tightest latency constraint, and α ∈ [0,1] the user's
// power-vs-performance knob. Min-cut partitioning of this graph groups
// heavily-communicating, latency-critical cores onto shared switches.
package vcg

import (
	"fmt"

	"nocvi/internal/graph"
	"nocvi/internal/soc"
)

// DefaultAlpha is the weight used when the caller does not care; it
// mildly favours bandwidth over latency, which matches the paper's
// power-first objective.
const DefaultAlpha = 0.6

// VCG is the communication graph of one voltage island.
type VCG struct {
	Island soc.IslandID

	// Cores lists the island's cores in ascending ID order; vertex i of
	// G corresponds to Cores[i].
	Cores []soc.CoreID

	// G holds one directed edge per intra-island flow, weighted by h.
	G *graph.Directed

	// Flows are the intra-island flows, in spec order.
	Flows []soc.Flow

	alpha float64
}

// Build constructs the VCG of island isl from the spec. alpha must be in
// [0,1]. Flows whose endpoints are not both in isl are ignored (they are
// inter-island flows, routed in Algorithm 1 step 15 instead).
func Build(spec *soc.Spec, isl soc.IslandID, alpha float64) (*VCG, error) {
	if !(alpha >= 0 && alpha <= 1) { // written so that NaN fails too
		return nil, fmt.Errorf("vcg: alpha %g outside [0,1]", alpha)
	}
	cores := spec.CoresIn(isl)
	if len(cores) == 0 {
		return nil, fmt.Errorf("vcg: island %d has no cores", isl)
	}
	idx := make(map[soc.CoreID]int, len(cores))
	for i, c := range cores {
		idx[c] = i
	}
	v := &VCG{
		Island: isl,
		Cores:  cores,
		G:      graph.NewDirected(len(cores)),
		alpha:  alpha,
	}
	maxBW := spec.MaxFlowBandwidth()
	minLat := spec.MinLatencyConstraint()
	for _, f := range spec.Flows {
		si, sok := idx[f.Src]
		di, dok := idx[f.Dst]
		if !sok || !dok {
			continue
		}
		v.Flows = append(v.Flows, f)
		v.G.AddEdge(si, di, EdgeWeight(f, maxBW, minLat, alpha))
	}
	return v, nil
}

// EdgeWeight computes h(i,j) for a flow given the spec-wide extrema.
// Unconstrained flows (MaxLatencyCycles == 0) contribute no latency
// term; a spec with no latency constraints anywhere likewise reduces to
// pure bandwidth weighting.
func EdgeWeight(f soc.Flow, maxBW, minLat, alpha float64) float64 {
	var h float64
	if maxBW > 0 {
		h += alpha * f.BandwidthBps / maxBW
	}
	if f.MaxLatencyCycles > 0 && minLat > 0 {
		h += (1 - alpha) * minLat / f.MaxLatencyCycles
	}
	return h
}

// N returns the number of cores (vertices) in the island.
func (v *VCG) N() int { return len(v.Cores) }

// Undirected returns the symmetrized view used by min-cut partitioning;
// opposite-direction flows between the same pair accumulate.
func (v *VCG) Undirected() *graph.Undirected { return v.G.Undirect() }

// Core returns the core ID of vertex i.
func (v *VCG) Core(i int) soc.CoreID { return v.Cores[i] }

// BuildAll constructs the VCG of every island in the spec.
func BuildAll(spec *soc.Spec, alpha float64) ([]*VCG, error) {
	out := make([]*VCG, len(spec.Islands))
	for i := range spec.Islands {
		v, err := Build(spec, soc.IslandID(i), alpha)
		if err != nil {
			return nil, err
		}
		out[i] = v
	}
	return out, nil
}
