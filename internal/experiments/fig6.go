package experiments

import (
	"fmt"
	"io"

	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/filter"
	"repro/internal/obs"
	"repro/internal/vision"
)

// BreakdownPoint is one x-position of Figure 6: per-frame execution
// time split between the base DNN and the microclassifiers.
type BreakdownPoint struct {
	K           int
	BaseSeconds float64
	MCSeconds   float64
	// ExtractsPerFrame counts base-DNN passes per frame: 1 at every k
	// when all MCs share one extraction.
	ExtractsPerFrame float64
}

// BreakdownResult holds one architecture's Figure 6 panel.
type BreakdownResult struct {
	Arch   filter.Arch
	Points []BreakdownPoint
	// BaseEquivalentMCs is the base DNN's per-frame time expressed in
	// units of one MC's marginal time (the paper: 15–40).
	BaseEquivalentMCs float64
}

// Breakdown regenerates one Figure 6 panel: the per-frame time split
// between the shared base DNN and k concurrent MCs of one
// architecture.
func Breakdown(w io.Writer, o Options, arch filter.Arch, ks []int, frames int) (*BreakdownResult, error) {
	o.fillDefaults()
	if len(ks) == 0 {
		ks = []int{1, 2, 4, 8, 16, 32, 50}
	}
	if frames <= 0 {
		frames = 10
	}
	d := dataset.Generate(dataset.Jackson(o.WorkingWidth, frames, o.Seed))
	imgs := make([]*vision.Image, frames)
	for i := range imgs {
		imgs[i] = d.Frame(i)
	}
	base := newBase(o)
	res := &BreakdownResult{Arch: arch}

	for _, k := range ks {
		ob := obs.NewObserver(obs.Options{})
		edge, err := core.NewEdgeNode(core.Config{
			FrameWidth: d.Cfg.Width, FrameHeight: d.Cfg.Height, FPS: d.Cfg.FPS,
			Base: base, UploadBitrate: 100_000, MCWorkers: o.mcWorkers(), Obs: ob,
		})
		if err != nil {
			return nil, err
		}
		for i := 0; i < k; i++ {
			mc, err := filter.NewMC(filter.Spec{
				Name: fmt.Sprintf("%v-%d", arch, i), Arch: arch, Hidden: 32, Seed: o.Seed + int64(i),
			}, base, d.Cfg.Width, d.Cfg.Height)
			if err != nil {
				return nil, err
			}
			if err := edge.Deploy(mc, 2); err != nil {
				return nil, err
			}
		}
		for _, img := range imgs {
			if _, err := edge.ProcessFrame(img); err != nil {
				return nil, err
			}
		}
		st := edge.Stats()
		res.Points = append(res.Points, BreakdownPoint{
			K:                k,
			BaseSeconds:      st.BaseDNNTime.Seconds() / float64(frames),
			MCSeconds:        st.MCTime.Seconds() / float64(frames),
			ExtractsPerFrame: float64(ob.Extract.Count()) / float64(frames),
		})
	}

	// Express the base cost in MC units using the k=1 point.
	first := res.Points[0]
	if first.MCSeconds > 0 {
		res.BaseEquivalentMCs = first.BaseSeconds / (first.MCSeconds / float64(res.Points[0].K))
	}
	printBreakdown(w, res)
	return res, nil
}

func printBreakdown(w io.Writer, res *BreakdownResult) {
	fmt.Fprintf(w, "Figure 6 — per-frame execution time breakdown (%v)\n", res.Arch)
	fmt.Fprintf(w, "%-6s %16s %16s %12s\n", "k", "base DNN (s)", "MCs (s)", "MC share")
	for _, p := range res.Points {
		share := 0.0
		if p.BaseSeconds+p.MCSeconds > 0 {
			share = p.MCSeconds / (p.BaseSeconds + p.MCSeconds)
		}
		fmt.Fprintf(w, "%-6d %16.5f %16.5f %12.2f\n", p.K, p.BaseSeconds, p.MCSeconds, share)
	}
	fmt.Fprintf(w, "base DNN time ≈ %.0f MCs (paper: 15-40)\n\n", res.BaseEquivalentMCs)
}
