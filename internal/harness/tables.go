package harness

import (
	"fmt"
	"io"

	"repro/internal/control"
	"repro/internal/inject"
	"repro/internal/ode"
	"repro/internal/problems"
)

// Options parameterizes the paper-table experiments.
type Options struct {
	Problem       *problems.Problem // default: pre-shock WENO5 Burgers (see problem())
	Seed          uint64
	MinInjections int // per cell; the paper uses >= 10000
	Workers       int // campaign workers per cell (see Config.Workers)

	// Trace, TraceCap and Metrics enable the observability layer on every
	// campaign cell (see the Config fields of the same names); the
	// per-cell Result carries the trace and metrics back to the caller.
	Trace    bool
	TraceCap int
	Metrics  bool
}

// telemetry copies the observability switches into a cell config.
func (o Options) telemetry(cfg Config) Config {
	cfg.Trace, cfg.TraceCap, cfg.Metrics = o.Trace, o.TraceCap, o.Metrics
	return cfg
}

func (o Options) problem() *problems.Problem {
	if o.Problem != nil {
		return o.Problem
	}
	// The default table workload: marginally resolved nonlinear hyperbolic
	// dynamics under CFL-capped adaptive stepping — the laptop-scale stand-in
	// for the paper's WENO5 bubble (see DESIGN.md). The pre-shock window
	// keeps the controller in its smooth operating regime (FPR ~ 0).
	pb := problems.Burgers1D(128, "weno5")
	pb.TEnd = 0.25
	return pb
}

func (o Options) minInj() int {
	if o.MinInjections == 0 {
		return 2000
	}
	return o.MinInjections
}

// CellResult identifies one campaign cell's outcome for table assembly.
type CellResult struct {
	Method   string
	Injector string
	Detector DetectorKind
	Result   *Result
}

// RunGrid runs a campaign for every (tableau, injector) pair with one
// detector kind and returns the cells in order.
func RunGrid(o Options, tabs []*control.Tableau, injs []inject.Injector, det DetectorKind) ([]CellResult, error) {
	var cells []CellResult
	for _, tab := range tabs {
		for _, inj := range injs {
			res, err := Run(o.telemetry(Config{
				Problem:       o.problem(),
				Tab:           tab,
				Injector:      inj,
				Detector:      det,
				Seed:          o.Seed + uint64(len(cells)),
				MinInjections: o.minInj(),
				Workers:       o.Workers,
			}))
			if err != nil {
				return nil, fmt.Errorf("harness: %s/%s: %w", tab.Name, inj.Name(), err)
			}
			cells = append(cells, CellResult{Method: tab.Name, Injector: inj.Name(), Detector: det, Result: res})
		}
	}
	return cells, nil
}

// Table1 regenerates Table I: detection accuracy (FP and TP rates) of the
// classic adaptive controller for the three embedded pairs and the three
// injectors.
func Table1(w io.Writer, o Options) ([]CellResult, error) {
	cells, err := RunGrid(o, ode.Tableaus(), inject.All(), Classic)
	if err != nil {
		return nil, err
	}
	t := &Table{
		Title:   "Table I — classic adaptive controller: detection accuracy (%)",
		Headers: []string{"Rate", "Injector", "Heun-Euler", "Bogacki-Shampine", "Dormand-Prince"},
	}
	byInj := func(inj string) [3]*Result {
		var out [3]*Result
		for _, c := range cells {
			if c.Injector != inj {
				continue
			}
			switch c.Method {
			case "heun-euler":
				out[0] = c.Result
			case "bogacki-shampine":
				out[1] = c.Result
			case "dormand-prince":
				out[2] = c.Result
			}
		}
		return out
	}
	// FP row aggregates all injectors, as in the paper.
	var fp [3]Rates
	for _, c := range cells {
		idx := map[string]int{"heun-euler": 0, "bogacki-shampine": 1, "dormand-prince": 2}[c.Method]
		fp[idx].Add(c.Result.Rates)
	}
	t.AddRowf("FP", "All", fp[0].FPR(), fp[1].FPR(), fp[2].FPR())
	for _, inj := range []string{"multibit", "singlebit", "scaled"} {
		r := byInj(inj)
		t.AddRowf("TP", inj, r[0].Rates.TPR(), r[1].Rates.TPR(), r[2].Rates.TPR())
	}
	t.Render(w)
	return cells, nil
}

// Table2 regenerates Table II: false negative rates of the classic
// controller, over all corrupted steps and over significantly corrupted
// steps only. It reuses the Table I campaign cells when provided.
func Table2(w io.Writer, o Options, cells []CellResult) ([]CellResult, error) {
	if cells == nil {
		var err error
		cells, err = RunGrid(o, ode.Tableaus(), inject.All(), Classic)
		if err != nil {
			return nil, err
		}
	}
	t := &Table{
		Title: "Table II — classic adaptive controller: false negative rate (%)",
		Headers: []string{"Injector",
			"HE all", "HE sig", "BS all", "BS sig", "DP all", "DP sig"},
	}
	for _, inj := range []string{"singlebit", "multibit", "scaled"} {
		row := []interface{}{inj}
		for _, m := range []string{"heun-euler", "bogacki-shampine", "dormand-prince"} {
			var r *Result
			for _, c := range cells {
				if c.Injector == inj && c.Method == m {
					r = c.Result
				}
			}
			if r == nil {
				row = append(row, "-", "-")
				continue
			}
			row = append(row, r.Rates.FNR(), r.Rates.SFNR())
		}
		t.AddRowf(row...)
	}
	t.Render(w)
	return cells, nil
}

// Table3 regenerates Table III: FPR / TPR / significant FNR of the classic
// controller, LBDC, IBDC, and replication with scaled injections. The paper
// uses the Heun-Euler pair; stateProb adds the paper's §V-D state-corruption
// scenario (where the classic estimate is provably blind), which is the main
// source of Heun-Euler-visible significant false negatives in this
// reproduction (see EXPERIMENTS.md).
func Table3(w io.Writer, o Options, tab *control.Tableau, stateProb float64) (map[DetectorKind]*Result, error) {
	if tab == nil {
		tab = ode.HeunEuler()
	}
	t := &Table{
		Title:   fmt.Sprintf("Table III — detector comparison (%s, scaled injections), %%", tab.Name),
		Headers: []string{"Detector", "FPR", "TPR", "Significant FNR"},
	}
	out := map[DetectorKind]*Result{}
	for _, det := range []DetectorKind{Classic, LBDC, IBDC, Replication} {
		res, err := Run(o.telemetry(Config{
			Problem:       o.problem(),
			Tab:           tab,
			Injector:      inject.Scaled{},
			Detector:      det,
			Seed:          o.Seed + 7777,
			MinInjections: o.minInj(),
			Workers:       o.Workers,
			StateProb:     stateProb,
		}))
		if err != nil {
			return nil, fmt.Errorf("harness: table3 %s: %w", det, err)
		}
		out[det] = res
		t.AddRowf(string(det), res.Rates.FPR(), res.Rates.TPR(), res.Rates.SFNR())
	}
	t.Render(w)
	return out, nil
}

// FixedTable compares the related-work detectors of §VII-C, AID and Hot
// Rode, against the unguarded solver (row "none", the Classic cell) in
// fixed-step cells on the 2-D oscillator at its constant step H0
// (Heun-Euler, scaled injections). The workload is always the oscillator;
// o.Problem is ignored.
func FixedTable(w io.Writer, o Options) ([]CellResult, error) {
	t := &Table{
		Title:   "Related work — fixed-step detectors (Heun-Euler, scaled injections), %",
		Headers: []string{"Detector", "FPR", "TPR", "Significant FNR"},
	}
	tab, inj := ode.HeunEuler(), inject.Scaled{}
	var cells []CellResult
	for _, det := range []DetectorKind{Classic, AID, HotRode} {
		res, err := Run(o.telemetry(Config{
			Problem:       problems.Oscillator(),
			Tab:           tab,
			Injector:      inj,
			Detector:      det,
			Seed:          o.Seed,
			MinInjections: o.minInj(),
			Workers:       o.Workers,
			FixedStep:     true,
		}))
		if err != nil {
			return nil, fmt.Errorf("harness: fixed %s: %w", det, err)
		}
		cells = append(cells, CellResult{Method: tab.Name, Injector: inj.Name(), Detector: det, Result: res})
		label := string(det)
		if det == Classic {
			label = "none"
		}
		t.AddRowf(label, res.Rates.FPR(), res.Rates.TPR(), res.Rates.SFNR())
	}
	t.Render(w)
	return cells, nil
}

// Table4 regenerates Table IV: memory and computational overheads of the
// protection mechanisms relative to the classic adaptive controller. It
// also returns the protected campaign cell behind each measured row.
func Table4(w io.Writer, o Options) (map[DetectorKind]Overheads, []CellResult, error) {
	t := &Table{
		Title:   "Table IV — overheads vs classic adaptive controller (%)",
		Headers: []string{"Detector", "Memory (%)", "Computation (%)"},
	}
	out := map[DetectorKind]Overheads{}
	t.AddRowf(string(Classic), "+0.0", "+0.0")
	out[Classic] = Overheads{}
	var cells []CellResult
	// The paper's Table IV compares LBDC/IBDC/replication; TMR and
	// Richardson are included as the extended baseline set.
	for _, det := range []DetectorKind{LBDC, IBDC, Replication, TMR, Richardson} {
		oh, res, err := MeasureOverheads(o.telemetry(Config{
			Problem:       o.problem(),
			Tab:           ode.HeunEuler(),
			Injector:      inject.Scaled{},
			Detector:      det,
			Seed:          o.Seed + 4242,
			MinInjections: o.minInj(),
			Workers:       o.Workers,
		}))
		if err != nil {
			return nil, nil, fmt.Errorf("harness: table4 %s: %w", det, err)
		}
		out[det] = oh
		cells = append(cells, CellResult{Method: "heun-euler", Injector: "scaled", Detector: det, Result: res})
		t.AddRowf(string(det), fmt.Sprintf("+%.1f", oh.MemoryPct), fmt.Sprintf("+%.1f", oh.ComputePct))
	}
	t.Render(w)
	return out, cells, nil
}

// ToleranceSweep measures how the classic controller's detection rates
// depend on the user tolerance — the knob that defines "significant" in the
// first place. Tightening the tolerance shrinks the error-level weights, so
// more corruptions become both significant and visible; the sweep
// quantifies that trade-off (an ablation the paper's fixed-tolerance tables
// cannot show).
func ToleranceSweep(w io.Writer, o Options, tols []float64) ([]CellResult, error) {
	if len(tols) == 0 {
		tols = []float64{1e-3, 1e-4, 1e-5, 1e-6}
	}
	t := &Table{
		Title:   "Tolerance sweep — classic adaptive controller (Heun-Euler, scaled injections), %",
		Headers: []string{"Tol_A = Tol_R", "FPR", "TPR", "Significant fraction", "Significant FNR"},
	}
	var cells []CellResult
	for i, tol := range tols {
		p := o.problem()
		p.TolA, p.TolR = tol, tol
		res, err := Run(o.telemetry(Config{
			Problem:       p,
			Tab:           ode.HeunEuler(),
			Injector:      inject.Scaled{},
			Detector:      Classic,
			Seed:          o.Seed + uint64(i)*13,
			MinInjections: o.minInj(),
			Workers:       o.Workers,
		}))
		if err != nil {
			return nil, fmt.Errorf("harness: tolerance sweep %g: %w", tol, err)
		}
		sigFrac := 0.0
		if res.Rates.CorruptTrials > 0 {
			sigFrac = 100 * float64(res.Rates.SigTrials) / float64(res.Rates.CorruptTrials)
		}
		t.AddRowf(fmt.Sprintf("%.0e", tol), res.Rates.FPR(), res.Rates.TPR(), sigFrac, res.Rates.SFNR())
		cells = append(cells, CellResult{Method: "heun-euler", Injector: "scaled", Detector: Classic, Result: res})
	}
	t.Render(w)
	return cells, nil
}

// Ablations regenerates the design-choice comparisons DESIGN.md calls out,
// as one table: Algorithm 1's order adaptation vs pinned orders, the
// first-same-as-last reuse, and the controller norm. It returns the cells
// in row order.
func Ablations(w io.Writer, o Options) ([]CellResult, error) {
	p := o.problem()
	var cells []CellResult
	run := func(c Config) (*Result, error) {
		c.Problem = p
		c.Tab = ode.HeunEuler()
		c.Injector = inject.Scaled{}
		c.Seed = o.Seed + 31
		c.MinInjections = o.minInj()
		res, err := Run(o.telemetry(c))
		if err == nil {
			cells = append(cells, CellResult{Method: "heun-euler", Injector: "scaled", Detector: c.Detector, Result: res})
		}
		return res, err
	}
	t := &Table{
		Title:   "Ablations (Heun-Euler, scaled injections), %",
		Headers: []string{"Variant", "FPR", "TPR", "SFNR", "evals/step"},
	}
	row := func(name string, res *Result) {
		eps := 0.0
		if res.Steps > 0 {
			eps = float64(res.Evals) / float64(res.Steps)
		}
		t.AddRowf(name, res.Rates.FPR(), res.Rates.TPR(), res.Rates.SFNR(), fmt.Sprintf("%.2f", eps))
	}

	adaptive, err := run(Config{Detector: LBDC})
	if err != nil {
		return nil, err
	}
	row("LBDC, Algorithm 1", adaptive)
	for q := 1; q <= 3; q++ {
		pinned, err := run(Config{Detector: LBDC, NoAdapt: true, FixedOrder: q + 1})
		if err != nil {
			return nil, err
		}
		row(fmt.Sprintf("LBDC, pinned q=%d", q), pinned)
	}
	reuse, err := run(Config{Detector: IBDC})
	if err != nil {
		return nil, err
	}
	row("IBDC, f(x_n) reuse", reuse)
	noReuse, err := run(Config{Detector: IBDC, NoReuseFirstStage: true})
	if err != nil {
		return nil, err
	}
	row("IBDC, no reuse", noReuse)
	wrms, err := run(Config{Detector: Classic})
	if err != nil {
		return nil, err
	}
	row("classic, WRMS norm", wrms)
	maxn, err := run(Config{Detector: Classic, MaxNorm: true})
	if err != nil {
		return nil, err
	}
	row("classic, max norm", maxn)
	t.Render(w)
	return cells, nil
}

// FieldSweep measures per-variable vulnerability on a field-blocked PDE
// state: injections are confined to one physical variable at a time and
// the classic controller's rates are compared. nVars variables of equal
// block size are assumed (the pde package's variable-major layout). It
// returns one cell per variable, in order.
func FieldSweep(w io.Writer, o Options, p *problems.Problem, varNames []string) ([]CellResult, error) {
	nVars := len(varNames)
	dim := p.Sys.Dim()
	if dim%nVars != 0 {
		return nil, fmt.Errorf("harness: dim %d not divisible by %d variables", dim, nVars)
	}
	blk := dim / nVars
	t := &Table{
		Title:   fmt.Sprintf("Per-variable vulnerability — %s, classic controller (%%)", p.Name),
		Headers: []string{"Corrupted variable", "TPR", "Significant fraction", "Significant FNR"},
	}
	var cells []CellResult
	for v := 0; v < nVars; v++ {
		lo, hi := v*blk, (v+1)*blk
		res, err := Run(o.telemetry(Config{
			Problem:       p,
			Tab:           ode.BogackiShampine(),
			Injector:      inject.Scaled{},
			Detector:      Classic,
			Seed:          o.Seed + uint64(v)*17,
			MinInjections: o.minInj(),
			Workers:       o.Workers,
			Field:         &inject.FieldSelective{Lo: lo, Hi: hi},
		}))
		if err != nil {
			return nil, err
		}
		sigFrac := 0.0
		if res.Rates.CorruptTrials > 0 {
			sigFrac = 100 * float64(res.Rates.SigTrials) / float64(res.Rates.CorruptTrials)
		}
		t.AddRowf(varNames[v], res.Rates.TPR(), sigFrac, res.Rates.SFNR())
		inj := fmt.Sprintf("scaled[%d:%d]", lo, hi)
		cells = append(cells, CellResult{Method: "bogacki-shampine", Injector: inj, Detector: Classic, Result: res})
	}
	t.Render(w)
	return cells, nil
}

// Table3X extends Table III across all three injectors for each detector
// (the paper reports only scaled injections there): the significant-FNR
// grid shows double-checking holding across corruption models. It returns
// the cells in row order.
func Table3X(w io.Writer, o Options, tab *control.Tableau) ([]CellResult, error) {
	if tab == nil {
		tab = ode.BogackiShampine()
	}
	t := &Table{
		Title:   fmt.Sprintf("Extended Table III — significant FNR by detector and injector (%s), %%", tab.Name),
		Headers: []string{"Detector", "multibit", "singlebit", "scaled"},
	}
	var cells []CellResult
	for _, det := range []DetectorKind{Classic, LBDC, IBDC, Replication} {
		row := []interface{}{string(det)}
		for _, inj := range inject.All() {
			res, err := Run(o.telemetry(Config{
				Problem:       o.problem(),
				Tab:           tab,
				Injector:      inj,
				Detector:      det,
				Seed:          o.Seed + 99,
				MinInjections: o.minInj(),
				Workers:       o.Workers,
			}))
			if err != nil {
				return nil, err
			}
			row = append(row, res.Rates.SFNR())
			cells = append(cells, CellResult{Method: tab.Name, Injector: inj.Name(), Detector: det, Result: res})
		}
		t.AddRowf(row...)
	}
	t.Render(w)
	return cells, nil
}

// Corpus aggregates detector performance across the whole ODE problem
// corpus (problems.Standard), checking that the detection behaviour is a
// property of the mechanism rather than of one workload. It returns the
// aggregate rates and one cell per problem, in order.
func Corpus(w io.Writer, o Options, det DetectorKind) (*Rates, []CellResult, error) {
	t := &Table{
		Title:   fmt.Sprintf("Corpus sweep — %s detector, scaled injections (%%)", det),
		Headers: []string{"Problem", "FPR", "TPR", "Significant FNR"},
	}
	var agg Rates
	var cells []CellResult
	for i, p := range problems.Standard() {
		tab := ode.BogackiShampine()
		res, err := Run(o.telemetry(Config{
			Problem:       p,
			Tab:           tab,
			Injector:      inject.Scaled{},
			Detector:      det,
			Seed:          o.Seed + uint64(i)*7,
			MinInjections: o.minInj() / 2,
			Workers:       o.Workers,
		}))
		if err != nil {
			return nil, nil, fmt.Errorf("harness: corpus %s: %w", p.Name, err)
		}
		agg.Add(res.Rates)
		t.AddRowf(p.Name, res.Rates.FPR(), res.Rates.TPR(), res.Rates.SFNR())
		cells = append(cells, CellResult{Method: tab.Name, Injector: "scaled", Detector: det, Result: res})
	}
	t.AddRowf("ALL", agg.FPR(), agg.TPR(), agg.SFNR())
	t.Render(w)
	return &agg, cells, nil
}
