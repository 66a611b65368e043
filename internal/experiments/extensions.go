package experiments

import (
	"context"
	"fmt"
	"math"
	"math/rand"

	"armada/internal/core"
	"armada/internal/fissione"
	"armada/internal/naming"
	"armada/internal/stats"
)

// This file holds the extension experiments (EX1–EX5 in DESIGN.md) that go
// beyond the paper's published figures.

// DelayBounds regenerates the Section 4.3.2 claims as a figure: measured
// maximum and average PIRA delay against the 2·logN bound and the logN
// average bound, across network sizes.
func DelayBounds(cfg Config) (*Figure, error) {
	cfg = cfg.WithDefaults()
	x := make([]float64, len(cfg.NetSizes))
	var (
		maxDelay = make([]float64, len(cfg.NetSizes))
		avgDelay = make([]float64, len(cfg.NetSizes))
		bound    = make([]float64, len(cfg.NetSizes))
		logN     = make([]float64, len(cfg.NetSizes))
	)
	for i, n := range cfg.NetSizes {
		net, err := fissione.BuildRandom(cfg.K, n, cfg.Seed+int64(i)*17)
		if err != nil {
			return nil, err
		}
		tree, err := naming.NewSingleTree(cfg.K, cfg.SpaceLow, cfg.SpaceHigh)
		if err != nil {
			return nil, err
		}
		eng, err := core.New(net, tree)
		if err != nil {
			return nil, err
		}
		rng := rand.New(rand.NewSource(cfg.Seed + int64(i)*17 + 1))
		var delay stats.Sample
		for q := 0; q < cfg.Queries; q++ {
			// Mix widths so the bound is exercised across query shapes.
			width := []float64{2, 20, 200, 800}[q%4]
			lo := cfg.SpaceLow + rng.Float64()*(cfg.SpaceHigh-cfg.SpaceLow-width)
			res, err := eng.RangeQuery(context.Background(), net.PeerIDAt(rng.Intn(net.Size())), []float64{lo}, []float64{lo + width})
			if err != nil {
				return nil, err
			}
			delay.AddInt(res.Stats.Delay)
		}
		x[i] = float64(n)
		maxDelay[i] = delay.Max()
		avgDelay[i] = delay.Mean()
		bound[i] = 2 * math.Log2(float64(n))
		logN[i] = math.Log2(float64(n))
	}
	return &Figure{
		ID: "bounds", Title: "PIRA delay bounds (Section 4.3.2 claims)",
		XLabel: "Network Size", YLabel: "Delay (hops)", X: x,
		Series: []Series{
			{"max delay", maxDelay}, {"2*logN bound", bound},
			{"avg delay", avgDelay}, {"logN", logN},
		},
	}, nil
}

// MIRAFigure is extension EX1: MIRA delay and message cost as the number of
// attributes grows, with query boxes covering a fixed fraction of each
// attribute.
func MIRAFigure(cfg Config) (*Figure, error) {
	cfg = cfg.WithDefaults()
	attrs := []int{1, 2, 3, 4}
	x := make([]float64, len(attrs))
	var (
		delay = make([]float64, len(attrs))
		msgs  = make([]float64, len(attrs))
		dests = make([]float64, len(attrs))
		logN  = make([]float64, len(attrs))
	)
	for i, m := range attrs {
		net, err := fissione.BuildRandom(cfg.K, cfg.FixedNet, cfg.Seed+int64(i)*23)
		if err != nil {
			return nil, err
		}
		spaces := make([]naming.Space, m)
		for j := range spaces {
			spaces[j] = naming.Space{Low: cfg.SpaceLow, High: cfg.SpaceHigh}
		}
		tree, err := naming.NewTree(cfg.K, spaces...)
		if err != nil {
			return nil, err
		}
		eng, err := core.New(net, tree)
		if err != nil {
			return nil, err
		}
		rng := rand.New(rand.NewSource(cfg.Seed + int64(i)*23 + 1))
		var d, ms, dp stats.Sample
		// Per-attribute width chosen so the box volume fraction stays at
		// about 2% regardless of m.
		frac := math.Pow(0.02, 1/float64(m))
		width := frac * (cfg.SpaceHigh - cfg.SpaceLow)
		for q := 0; q < cfg.Queries; q++ {
			lo := make([]float64, m)
			hi := make([]float64, m)
			for j := range lo {
				lo[j] = cfg.SpaceLow + rng.Float64()*(cfg.SpaceHigh-cfg.SpaceLow-width)
				hi[j] = lo[j] + width
			}
			res, err := eng.RangeQuery(context.Background(), net.PeerIDAt(rng.Intn(net.Size())), lo, hi)
			if err != nil {
				return nil, err
			}
			d.AddInt(res.Stats.Delay)
			ms.AddInt(res.Stats.Messages)
			dp.AddInt(res.Stats.DestPeers)
		}
		x[i] = float64(m)
		delay[i] = d.Mean()
		msgs[i] = ms.Mean()
		dests[i] = dp.Mean()
		logN[i] = math.Log2(float64(cfg.FixedNet))
	}
	return &Figure{
		ID: "mira", Title: "EX1: MIRA cost vs number of attributes (2% selectivity)",
		XLabel: "Attributes (m)", YLabel: "Mean", X: x,
		Series: []Series{
			{"delay", delay}, {"logN", logN}, {"messages", msgs}, {"destpeers", dests},
		},
	}, nil
}

// AblationFigure is extension EX5: what PIRA's two design levers buy.
// It compares, across network sizes, the message cost of the pruned search
// against the unpruned FRT flood, and the delay on random-join builds
// against perfectly balanced builds.
func AblationFigure(cfg Config) (*Figure, error) {
	cfg = cfg.WithDefaults()
	sizes := cfg.NetSizes
	if len(sizes) > 4 {
		sizes = sizes[:4] // floods are expensive; a prefix of sizes suffices
	}
	x := make([]float64, len(sizes))
	var (
		prunedMsgs    = make([]float64, len(sizes))
		floodMsgs     = make([]float64, len(sizes))
		randomDelay   = make([]float64, len(sizes))
		balancedDelay = make([]float64, len(sizes))
	)
	queries := cfg.Queries / 10
	if queries < 10 {
		queries = 10
	}
	for i, n := range sizes {
		for variant := 0; variant < 2; variant++ {
			var (
				net *fissione.Network
				err error
			)
			if variant == 0 {
				net, err = fissione.BuildRandom(cfg.K, n, cfg.Seed+int64(i)*31)
			} else {
				net, err = fissione.BuildBalanced(cfg.K, n, cfg.Seed+int64(i)*31)
			}
			if err != nil {
				return nil, err
			}
			tree, err := naming.NewSingleTree(cfg.K, cfg.SpaceLow, cfg.SpaceHigh)
			if err != nil {
				return nil, err
			}
			eng, err := core.New(net, tree)
			if err != nil {
				return nil, err
			}
			rng := rand.New(rand.NewSource(cfg.Seed + int64(i)*31 + int64(variant)))
			var delaySample, prunedSample, floodSample stats.Sample
			width := float64(cfg.FixedRange)
			for q := 0; q < queries; q++ {
				lo := cfg.SpaceLow + rng.Float64()*(cfg.SpaceHigh-cfg.SpaceLow-width)
				issuer := net.PeerIDAt(rng.Intn(net.Size()))
				res, err := eng.RangeQuery(context.Background(), issuer, []float64{lo}, []float64{lo + width})
				if err != nil {
					return nil, err
				}
				delaySample.AddInt(res.Stats.Delay)
				if variant == 0 {
					prunedSample.AddInt(res.Stats.Messages)
					flood, err := eng.FloodQuery(context.Background(), issuer, []float64{lo}, []float64{lo + width})
					if err != nil {
						return nil, err
					}
					floodSample.AddInt(flood.Stats.Messages)
				}
			}
			if variant == 0 {
				randomDelay[i] = delaySample.Mean()
				prunedMsgs[i] = prunedSample.Mean()
				floodMsgs[i] = floodSample.Mean()
			} else {
				balancedDelay[i] = delaySample.Mean()
			}
		}
		x[i] = float64(n)
	}
	return &Figure{
		ID: "ablation", Title: "EX5: pruning and build-balance ablations",
		XLabel: "Network Size", YLabel: "Mean", X: x,
		Series: []Series{
			{"PIRA messages", prunedMsgs},
			{"unpruned FRT flood messages", floodMsgs},
			{"delay (random joins)", randomDelay},
			{"delay (balanced build)", balancedDelay},
		},
	}, nil
}

// Run dispatches an experiment by identifier. Valid identifiers: fig5,
// fig6, fig7, fig8, table1, bounds, mira, ablation, all.
func Run(id string, cfg Config) ([]Figure, []*Table, error) {
	switch id {
	case "fig5", "fig6":
		figs, err := RangeSizeFigures(cfg)
		return figs, nil, err
	case "fig7", "fig8":
		figs, err := NetworkSizeFigures(cfg)
		return figs, nil, err
	case "table1":
		tab, err := Table1(cfg)
		if err != nil {
			return nil, nil, err
		}
		return nil, []*Table{tab}, nil
	case "bounds":
		fig, err := DelayBounds(cfg)
		if err != nil {
			return nil, nil, err
		}
		return []Figure{*fig}, nil, nil
	case "mira":
		fig, err := MIRAFigure(cfg)
		if err != nil {
			return nil, nil, err
		}
		return []Figure{*fig}, nil, nil
	case "ablation":
		fig, err := AblationFigure(cfg)
		if err != nil {
			return nil, nil, err
		}
		return []Figure{*fig}, nil, nil
	case "all":
		var figs []Figure
		var tabs []*Table
		for _, sub := range []string{"fig5", "fig7", "table1", "bounds", "mira", "ablation"} {
			f, t, err := Run(sub, cfg)
			if err != nil {
				return nil, nil, err
			}
			figs = append(figs, f...)
			tabs = append(tabs, t...)
		}
		return figs, tabs, nil
	default:
		return nil, nil, fmt.Errorf("experiments: unknown experiment %q", id)
	}
}
