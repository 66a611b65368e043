// Package experiments reproduces every table and figure of the paper's
// evaluation (Section 4.3.3), plus the extension experiments documented in
// DESIGN.md. Each runner regenerates the data series of one figure using
// the paper's methodology: attribute interval [0,1000], queries drawn
// uniformly at random, issued by a random peer, averaged over Config.Queries
// runs per data point.
package experiments

import (
	"context"
	"fmt"
	"math"
	"math/rand"

	"armada/internal/can"
	"armada/internal/core"
	"armada/internal/dcfcan"
	"armada/internal/fissione"
	"armada/internal/naming"
	"armada/internal/pht"
	"armada/internal/skipgraph"
	"armada/internal/stats"
)

// Config parameterizes the experiment runners. Zero values take the paper's
// defaults.
type Config struct {
	// Queries per data point (paper: 1000).
	Queries int
	// Seed makes runs reproducible.
	Seed int64
	// K is the ObjectID length for FISSIONE networks.
	K int
	// CurveOrder is DCF-CAN's Hilbert curve order.
	CurveOrder uint
	// SpaceLow and SpaceHigh bound the attribute interval (paper: [0,1000]).
	SpaceLow  float64
	SpaceHigh float64
	// RangeSizes are the Figure 5/6 x-values.
	RangeSizes []int
	// NetSizes are the Figure 7/8 x-values.
	NetSizes []int
	// FixedNet is the network size for Figures 5/6 (paper: 2000).
	FixedNet int
	// FixedRange is the range size for Figures 7/8 (paper: 20).
	FixedRange int
}

// WithDefaults fills unset fields with the paper's parameters.
func (c Config) WithDefaults() Config {
	if c.Queries == 0 {
		c.Queries = 1000
	}
	if c.Seed == 0 {
		c.Seed = 42
	}
	if c.K == 0 {
		c.K = 32
	}
	if c.CurveOrder == 0 {
		c.CurveOrder = 9
	}
	if c.SpaceHigh == c.SpaceLow {
		c.SpaceLow, c.SpaceHigh = 0, 1000
	}
	if len(c.RangeSizes) == 0 {
		c.RangeSizes = []int{2, 10, 50, 100, 150, 200, 250, 300}
	}
	if len(c.NetSizes) == 0 {
		c.NetSizes = []int{1000, 2000, 3000, 4000, 5000, 6000, 7000, 8000}
	}
	if c.FixedNet == 0 {
		c.FixedNet = 2000
	}
	if c.FixedRange == 0 {
		c.FixedRange = 20
	}
	return c
}

// Series is one named line of a figure.
type Series struct {
	Name string
	Y    []float64
}

// Figure is the regenerated data of one paper figure.
type Figure struct {
	ID     string
	Title  string
	XLabel string
	YLabel string
	X      []float64
	Series []Series
}

// Table is the regenerated data of one paper table.
type Table struct {
	ID     string
	Title  string
	Header []string
	Rows   [][]string
}

// pointMetrics aggregates one (network, workload) data point.
type pointMetrics struct {
	piraDelay  stats.Sample
	piraMsgs   stats.Sample
	destPeers  stats.Sample
	mesgRatio  stats.Sample
	increRatio stats.Sample
	dcfDelay   stats.Sample
	dcfMsgs    stats.Sample
}

// runPoint measures Armada (PIRA) and DCF-CAN on one data point: a network
// of netSize peers and queries of the given range size.
func runPoint(cfg Config, netSize, rangeSize int, seed int64) (*pointMetrics, error) {
	pm := &pointMetrics{}

	// Armada over FISSIONE.
	net, err := fissione.BuildRandom(cfg.K, netSize, seed)
	if err != nil {
		return nil, fmt.Errorf("experiments: build fissione: %w", err)
	}
	tree, err := naming.NewSingleTree(cfg.K, cfg.SpaceLow, cfg.SpaceHigh)
	if err != nil {
		return nil, err
	}
	eng, err := core.New(net, tree)
	if err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewSource(seed + 1))
	width := float64(rangeSize)
	for q := 0; q < cfg.Queries; q++ {
		lo := cfg.SpaceLow + rng.Float64()*(cfg.SpaceHigh-cfg.SpaceLow-width)
		issuer := net.PeerIDAt(rng.Intn(net.Size()))
		res, err := eng.RangeQuery(context.Background(), issuer, []float64{lo}, []float64{lo + width})
		if err != nil {
			return nil, err
		}
		pm.piraDelay.AddInt(res.Stats.Delay)
		pm.piraMsgs.AddInt(res.Stats.Messages)
		pm.destPeers.AddInt(res.Stats.DestPeers)
		if res.Stats.DestPeers > 0 {
			pm.mesgRatio.Add(res.Stats.MesgRatio())
		}
		if res.Stats.DestPeers > 1 {
			pm.increRatio.Add(res.Stats.IncreRatio(netSize))
		}
	}

	// DCF-CAN baseline on the same workload distribution.
	canNet, err := can.BuildRandom(netSize, seed+2)
	if err != nil {
		return nil, fmt.Errorf("experiments: build can: %w", err)
	}
	scheme, err := dcfcan.New(canNet, cfg.CurveOrder, cfg.SpaceLow, cfg.SpaceHigh)
	if err != nil {
		return nil, err
	}
	rng = rand.New(rand.NewSource(seed + 3))
	for q := 0; q < cfg.Queries; q++ {
		lo := cfg.SpaceLow + rng.Float64()*(cfg.SpaceHigh-cfg.SpaceLow-width)
		res, err := scheme.RangeQuery(canNet.RandomZone(rng), lo, lo+width)
		if err != nil {
			return nil, err
		}
		pm.dcfDelay.AddInt(res.Stats.Delay)
		pm.dcfMsgs.AddInt(res.Stats.Messages)
	}
	return pm, nil
}

// RangeSizeFigures regenerates Figures 5, 6(a) and 6(b): the impact of
// range size at a fixed network size.
func RangeSizeFigures(cfg Config) ([]Figure, error) {
	cfg = cfg.WithDefaults()
	x := make([]float64, len(cfg.RangeSizes))
	var (
		piraDelay  = make([]float64, len(cfg.RangeSizes))
		dcfDelay   = make([]float64, len(cfg.RangeSizes))
		logN       = make([]float64, len(cfg.RangeSizes))
		piraMsgs   = make([]float64, len(cfg.RangeSizes))
		dcfMsgs    = make([]float64, len(cfg.RangeSizes))
		destPeers  = make([]float64, len(cfg.RangeSizes))
		mesgRatio  = make([]float64, len(cfg.RangeSizes))
		increRatio = make([]float64, len(cfg.RangeSizes))
	)
	for i, size := range cfg.RangeSizes {
		pm, err := runPoint(cfg, cfg.FixedNet, size, cfg.Seed+int64(i)*100)
		if err != nil {
			return nil, err
		}
		x[i] = float64(size)
		piraDelay[i] = pm.piraDelay.Mean()
		dcfDelay[i] = pm.dcfDelay.Mean()
		logN[i] = math.Log2(float64(cfg.FixedNet))
		piraMsgs[i] = pm.piraMsgs.Mean()
		dcfMsgs[i] = pm.dcfMsgs.Mean()
		destPeers[i] = pm.destPeers.Mean()
		mesgRatio[i] = pm.mesgRatio.Mean()
		increRatio[i] = pm.increRatio.Mean()
	}
	return []Figure{
		{
			ID: "fig5", Title: "Query delay at different range size",
			XLabel: "Range Size", YLabel: "Delay (hops)", X: x,
			Series: []Series{{"PIRA", piraDelay}, {"DCF-CAN", dcfDelay}, {"logN", logN}},
		},
		{
			ID: "fig6a", Title: "Messages at different range size",
			XLabel: "Range Size", YLabel: "Messages", X: x,
			Series: []Series{{"PIRA", piraMsgs}, {"DCF-CAN", dcfMsgs}, {"Destpeers", destPeers}},
		},
		{
			ID: "fig6b", Title: "Message ratios at different range size",
			XLabel: "Range Size", YLabel: "Ratio", X: x,
			Series: []Series{{"MesgRatio", mesgRatio}, {"IncreRatio", increRatio}},
		},
	}, nil
}

// NetworkSizeFigures regenerates Figures 7, 8(a) and 8(b): the impact of
// network size at a fixed range size.
func NetworkSizeFigures(cfg Config) ([]Figure, error) {
	cfg = cfg.WithDefaults()
	x := make([]float64, len(cfg.NetSizes))
	var (
		piraDelay  = make([]float64, len(cfg.NetSizes))
		dcfDelay   = make([]float64, len(cfg.NetSizes))
		logN       = make([]float64, len(cfg.NetSizes))
		piraMsgs   = make([]float64, len(cfg.NetSizes))
		dcfMsgs    = make([]float64, len(cfg.NetSizes))
		destPeers  = make([]float64, len(cfg.NetSizes))
		mesgRatio  = make([]float64, len(cfg.NetSizes))
		increRatio = make([]float64, len(cfg.NetSizes))
	)
	for i, n := range cfg.NetSizes {
		pm, err := runPoint(cfg, n, cfg.FixedRange, cfg.Seed+int64(i)*1000)
		if err != nil {
			return nil, err
		}
		x[i] = float64(n)
		piraDelay[i] = pm.piraDelay.Mean()
		dcfDelay[i] = pm.dcfDelay.Mean()
		logN[i] = math.Log2(float64(n))
		piraMsgs[i] = pm.piraMsgs.Mean()
		dcfMsgs[i] = pm.dcfMsgs.Mean()
		destPeers[i] = pm.destPeers.Mean()
		mesgRatio[i] = pm.mesgRatio.Mean()
		increRatio[i] = pm.increRatio.Mean()
	}
	return []Figure{
		{
			ID: "fig7", Title: "Query delay at different network size",
			XLabel: "Network Size", YLabel: "Delay (hops)", X: x,
			Series: []Series{{"PIRA", piraDelay}, {"DCF-CAN", dcfDelay}, {"logN", logN}},
		},
		{
			ID: "fig8a", Title: "Messages at different network size",
			XLabel: "Network Size", YLabel: "Messages", X: x,
			Series: []Series{{"PIRA", piraMsgs}, {"DCF-CAN", dcfMsgs}, {"Destpeers", destPeers}},
		},
		{
			ID: "fig8b", Title: "Message ratios at different network size",
			XLabel: "Network Size", YLabel: "Ratio", X: x,
			Series: []Series{{"MesgRatio", mesgRatio}, {"IncreRatio", increRatio}},
		},
	}, nil
}

// Table1 regenerates the paper's Table 1: the published properties of each
// general range-query scheme plus measured average delays for the three
// schemes implemented here (Armada/PIRA, DCF-CAN, PHT), on a network of
// FixedNet peers with range size 50.
func Table1(cfg Config) (*Table, error) {
	cfg = cfg.WithDefaults()
	const rangeSize = 50

	pm, err := runPoint(cfg, cfg.FixedNet, rangeSize, cfg.Seed)
	if err != nil {
		return nil, err
	}

	phtDelay, err := measurePHT(cfg, rangeSize)
	if err != nil {
		return nil, err
	}
	sgDelay, err := measureSkipGraph(cfg, rangeSize)
	if err != nil {
		return nil, err
	}

	logN := math.Log2(float64(cfg.FixedNet))
	f := func(v float64) string { return fmt.Sprintf("%.1f", v) }
	return &Table{
		ID: "table1",
		Title: fmt.Sprintf("Comparison of general range query schemes (measured: N=%d, range size %d, logN=%.1f)",
			cfg.FixedNet, rangeSize, logN),
		Header: []string{"Scheme", "Underlying DHT", "Degree", "Single attr", "Multi attr",
			"Published delay", "Measured avg delay", "Delay bounded"},
		Rows: [][]string{
			{"Squid", "Chord", "O(logN)", "yes", "yes", "O(h*logN)", "—", "no"},
			{"Skip Graph / SkipNet", "—", "O(logN)", "yes", "no", "O(logN+n)", f(sgDelay), "no"},
			{"SCRAP", "Skip Graph", "O(logN)", "yes", "yes", "O(logN+n)", "—", "no"},
			{"DCF-CAN", "CAN", "4", "yes", "no", "> O(N^(1/d))", f(pm.dcfDelay.Mean()), "no"},
			{"PHT", "any DHT", "4 (FISSIONE)", "yes", "yes", "O(b*logN)", f(phtDelay), "no"},
			{"Armada (this paper)", "FISSIONE", "4", "yes", "yes", "< logN", f(pm.piraDelay.Mean()), "yes"},
		},
	}, nil
}

// measureSkipGraph measures a Skip Graph's average range-query delay on a
// graph of the configured size with the paper's workload.
func measureSkipGraph(cfg Config, rangeSize int) (float64, error) {
	g, err := skipgraph.Build(cfg.FixedNet, cfg.SpaceLow, cfg.SpaceHigh, cfg.Seed+11)
	if err != nil {
		return 0, err
	}
	rng := rand.New(rand.NewSource(cfg.Seed + 12))
	var delay stats.Sample
	width := float64(rangeSize)
	for q := 0; q < cfg.Queries; q++ {
		lo := cfg.SpaceLow + rng.Float64()*(cfg.SpaceHigh-cfg.SpaceLow-width)
		res, err := g.RangeQuery(g.RandomNode(rng), lo, lo+width)
		if err != nil {
			return 0, err
		}
		delay.AddInt(res.Stats.Delay)
	}
	return delay.Mean(), nil
}

// measurePHT measures PHT's average range-query delay on a FISSIONE
// network of the configured size.
func measurePHT(cfg Config, rangeSize int) (float64, error) {
	net, err := fissione.BuildRandom(cfg.K, cfg.FixedNet, cfg.Seed+7)
	if err != nil {
		return 0, err
	}
	eng, err := core.New(net, nil)
	if err != nil {
		return 0, err
	}
	tree, err := pht.New(eng, 16, 8, cfg.SpaceLow, cfg.SpaceHigh, cfg.Seed+8)
	if err != nil {
		return 0, err
	}
	rng := rand.New(rand.NewSource(cfg.Seed + 9))
	for i := 0; i < 2000; i++ {
		tree.Insert(fmt.Sprintf("obj%d", i), cfg.SpaceLow+rng.Float64()*(cfg.SpaceHigh-cfg.SpaceLow))
	}
	var delay stats.Sample
	queries := cfg.Queries / 10
	if queries < 10 {
		queries = 10
	}
	width := float64(rangeSize)
	for q := 0; q < queries; q++ {
		lo := cfg.SpaceLow + rng.Float64()*(cfg.SpaceHigh-cfg.SpaceLow-width)
		res, err := tree.RangeQuery(lo, lo+width)
		if err != nil {
			return 0, err
		}
		delay.AddInt(res.Stats.Delay)
	}
	return delay.Mean(), nil
}
