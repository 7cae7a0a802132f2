// Package tqec is the public API of the bridge-based TQEC circuit
// compressor: it reproduces the automated space-time-volume optimization
// flow of Tseng, Hsu, Lin and Chang (DAC'21 / TCAD), turning an arbitrary
// reversible or quantum circuit into a compacted 3D geometric description.
//
// The pipeline (Fig. 11 of the paper):
//
//	gate decomposition → ICM conversion → canonical geometric description
//	→ modularization → iterative bridging → super-module clustering
//	→ time-ordering-aware 2.5D placement (SA) → friend-net-aware routing.
//
// Compile runs the whole flow and returns every intermediate artifact plus
// the final dimensions, volume and per-stage runtime breakdown; the
// Options toggles reproduce the paper's ablations (bridging on/off for
// Table V, primal-group clustering on/off for Table III).
//
// # Fault tolerance
//
// CompileContext/CompileICMContext propagate a context.Context into every
// iterative stage (SA placement, A* negotiation, bridging), so deadlines
// and cancellation abort the pipeline within a bounded number of loop
// iterations. Failures come back as *StageError values tagging the stage
// that failed; errors.Is against the sentinel taxonomy (ErrCanceled,
// ErrUnroutable, ErrPlacementInvalid, ErrDegraded, ErrPanic) classifies
// the cause. Residual panics anywhere in a stage are recovered and
// converted into a StageError carrying the goroutine stack. Placement
// validation failures are retried with derived seeds and an escalated SA
// budget (Options.Retry); routing failures degrade gracefully into
// per-net diagnostics and an optional whole-world fallback route
// (Result.Degraded, Routing.FailedNets) instead of aborting compilation.
package tqec

import (
	"context"
	"fmt"
	"runtime/debug"
	"time"

	"repro/internal/bridge"
	"repro/internal/canonical"
	"repro/internal/cluster"
	"repro/internal/decompose"
	"repro/internal/distill"
	"repro/internal/faults"
	"repro/internal/icm"
	"repro/internal/metrics"
	"repro/internal/modular"
	"repro/internal/place"
	"repro/internal/qc"
	"repro/internal/route"
	"repro/internal/zx"
)

// Retry configures the staged retry-with-escalation policy applied when a
// placement fails structural validation (overlap or time-ordering).
type Retry struct {
	// MaxAttempts is the total number of placement attempts, including
	// the first. Values below 1 mean a single attempt (no retries).
	MaxAttempts int
	// Escalation multiplies the SA iteration budget on each retry
	// (attempt k runs with base·Escalation^k moves). Values at or below
	// 1 fall back to 2.
	Escalation float64
}

// Hooks lets callers observe or perturb the pipeline. The harness uses
// BeforeStage for fault injection (forced errors, panics, cancellation).
type Hooks struct {
	// BeforeStage runs before each stage; a non-nil return aborts the
	// pipeline with that error tagged by the stage.
	BeforeStage func(stage Stage) error
}

// Options configures a compilation.
type Options struct {
	// Bridging enables the iterative bridging stage (disable to
	// reproduce the paper's "w/o bridging" ablation, Table V).
	Bridging bool
	// ZX enables the ZX-calculus pre-compression pass on the decomposed
	// circuit before ICM conversion (disable for the paper-faithful
	// ablation). The pass is a single wire-structured rewrite (phase
	// folding and CNOT cancellation) and is self-checking: it keeps the
	// original decomposition unless the rewritten one strictly lowers the
	// canonical space-time volume, so enabling it never worsens the
	// result (see internal/zx).
	ZX bool
	// PrimalGroups enables primal-group super-modules (disable to
	// reproduce the conference version [36], Table III).
	PrimalGroups bool
	// MaxGroupSize caps primal-group membership.
	MaxGroupSize int
	// NoBoxes skips distillation-box attachment: injections are treated
	// as raw state injections (used when compressing a distillation
	// circuit itself).
	NoBoxes bool
	// PrimalGap controls primal bridging, an extension beyond the paper:
	// penetrations of one line within this many canonical slots share a
	// module (fusing stretches of the primal loop across idle slots).
	// 0 or 1 reproduces the paper's dual-only bridging.
	PrimalGap int
	// StrictRouting turns residual routing failures (nets unroutable
	// even by the whole-world fallback) into an ErrUnroutable
	// compilation error instead of a degraded result.
	StrictRouting bool
	// Retry governs placement retry-with-escalation.
	Retry Retry
	// Hooks are observation/fault-injection callbacks.
	Hooks Hooks
	// Place configures the SA placement engine.
	Place place.Options
	// Route configures the dual-defect net router.
	Route route.Options
}

// DefaultOptions returns the journal-version flow with the paper's SA
// parameterization (2000 iterations).
func DefaultOptions() Options {
	return Options{
		Bridging:     true,
		ZX:           true,
		PrimalGroups: true,
		MaxGroupSize: 6,
		Retry:        Retry{MaxAttempts: 3, Escalation: 2},
		Place:        place.DefaultOptions(),
		Route:        route.DefaultOptions(),
	}
}

// FastOptions returns a reduced-effort configuration suitable for tests
// and quick exploration (a few thousand SA moves instead of the automatic
// 200-per-node budget).
func FastOptions() Options {
	o := DefaultOptions()
	o.Place.Iterations = 5000
	return o
}

// Result carries every artifact of a compilation.
type Result struct {
	// Input and intermediate representations.
	Circuit    *qc.Circuit
	Decomposed *qc.Circuit
	ICM        *icm.Circuit
	Canonical  *canonical.Description
	Netlist    *modular.Netlist
	Bridging   *bridge.Result
	Clustering *cluster.Clustering
	Placement  *place.Placement
	Routing    *route.Result

	// Dims are the final W/H/D extents of the compressed description
	// (module bodies, distillation boxes and routed nets).
	Dims metrics.Dims
	// Volume is the final space-time volume W×H×D. Distillation boxes
	// are integrated into the layout, so no separate box volume is added
	// (Table II's "Ours" column).
	Volume int
	// CanonicalVolume is the canonical-form volume of the same circuit.
	CanonicalVolume int
	// BoxVolume is the lower-bound distillation box volume (Vol_|Y⟩ +
	// Vol_|A⟩ of Table I), used when comparing against baselines that do
	// not integrate boxes.
	BoxVolume int
	// PlacementAttempts is how many SA placements ran (1 + retries).
	PlacementAttempts int
	// Degraded reports that routing fell back to degraded operation:
	// some nets needed the whole-world fallback router or remain
	// unrouted (see Routing.FailedNets for per-net diagnostics).
	Degraded bool
	// Breakdown is the per-stage wall-clock breakdown (Table VI), plus
	// fault-tolerance event counters (retries, fallbacks, panics).
	Breakdown *metrics.Breakdown
}

// CompressionRatio returns canonical volume over final volume (how many
// times smaller the compressed description is).
func (r *Result) CompressionRatio() float64 {
	if r.Volume == 0 {
		return 0
	}
	return float64(r.CanonicalVolume+r.BoxVolume) / float64(r.Volume)
}

// Compile runs the full compression flow on a reversible/quantum circuit.
func Compile(c *qc.Circuit, opts Options) (*Result, error) {
	//lint:ignore ctxflow sanctioned no-context entry point; CompileContext is the threaded variant
	return CompileContext(context.Background(), c, opts)
}

// CompileContext is Compile with cancellation: ctx deadlines and cancels
// abort the SA, negotiation and bridging loops within a bounded number of
// iterations, returning a StageError wrapping ErrCanceled.
func CompileContext(ctx context.Context, c *qc.Circuit, opts Options) (*Result, error) {
	res := &Result{Circuit: c, Breakdown: metrics.NewBreakdown()}
	err := runStage(res.Breakdown, metrics.StageOther, StagePreprocess, opts.Hooks, func() error {
		if err := faults.Canceled(ctx); err != nil {
			return err
		}
		d, err := decompose.Decompose(c)
		if err != nil {
			return err
		}
		res.Decomposed = d.Circuit
		return nil
	})
	if err != nil {
		return nil, err
	}
	if opts.ZX {
		err = runStage(res.Breakdown, metrics.StageZX, StageZXRewrite, opts.Hooks, func() error {
			if err := faults.Canceled(ctx); err != nil {
				return err
			}
			red, st, err := zx.Optimize(res.Decomposed)
			if err != nil {
				return err
			}
			res.Decomposed = red
			res.Breakdown.Count(metrics.CounterZXGatesBefore, st.GatesBefore)
			res.Breakdown.Count(metrics.CounterZXGatesAfter, st.GatesAfter)
			res.Breakdown.Count(metrics.CounterZXRewrites, st.Rewrites)
			if !st.Applied {
				res.Breakdown.Count(metrics.CounterZXFallbacks, 1)
			}
			return nil
		})
		if err != nil {
			return nil, err
		}
	}
	err = runStage(res.Breakdown, metrics.StageOther, StagePreprocess, opts.Hooks, func() error {
		var err error
		res.ICM, err = icm.FromDecomposed(res.Decomposed)
		return err
	})
	if err != nil {
		return nil, err
	}
	return compileFrom(ctx, res, opts)
}

// CompileICM runs the flow on a circuit already in ICM form (e.g. the
// state distillation circuits of package distill, the workloads Fowler &
// Devitt compressed by hand).
func CompileICM(ic *icm.Circuit, opts Options) (*Result, error) {
	//lint:ignore ctxflow sanctioned no-context entry point; CompileICMContext is the threaded variant
	return CompileICMContext(context.Background(), ic, opts)
}

// CompileICMContext is CompileICM with cancellation (see CompileContext).
func CompileICMContext(ctx context.Context, ic *icm.Circuit, opts Options) (*Result, error) {
	res := &Result{ICM: ic, Breakdown: metrics.NewBreakdown()}
	return compileFrom(ctx, res, opts)
}

// runStage executes one pipeline stage under the fault-containment guard:
// the Hooks.BeforeStage callback fires first, fn's wall-clock is charged
// to the breakdown stage mStage, any panic is recovered into a StageError
// wrapping ErrPanic with the stack attached, and plain errors are tagged
// with the stage and normalized for the cancellation sentinel.
func runStage(b *metrics.Breakdown, mStage string, stage Stage, hooks Hooks, fn func() error) (err error) {
	defer func() {
		if r := recover(); r != nil {
			b.Count(metrics.CounterRecoveredPanics, 1)
			err = &StageError{
				Stage: stage,
				Err:   fmt.Errorf("%w: %v", ErrPanic, r),
				Stack: debug.Stack(),
			}
		}
	}()
	if hooks.BeforeStage != nil {
		if herr := hooks.BeforeStage(stage); herr != nil {
			return stageError(stage, herr)
		}
	}
	var inner error
	b.Time(mStage, func() { inner = fn() })
	if inner != nil {
		return stageError(stage, inner)
	}
	return nil
}

// compileFrom continues the pipeline after res.ICM is set.
func compileFrom(ctx context.Context, res *Result, opts Options) (*Result, error) {
	// Canonical description and modularization (charged to "other" per
	// Table VI).
	err := runStage(res.Breakdown, metrics.StageOther, StagePreprocess, opts.Hooks, func() error {
		if err := faults.Canceled(ctx); err != nil {
			return err
		}
		var err error
		if res.Canonical, err = canonical.Build(res.ICM); err != nil {
			return err
		}
		gap := opts.PrimalGap
		if gap < 1 {
			gap = 1
		}
		res.Netlist, err = modular.BuildWithGap(res.Canonical, gap)
		return err
	})
	if err != nil {
		return nil, err
	}
	stats := res.ICM.Stats()
	res.CanonicalVolume = res.Canonical.Volume()
	res.BoxVolume = distill.BoxVolume(stats.NumY, stats.NumA)

	err = runStage(res.Breakdown, metrics.StageBridging, StageBridging, opts.Hooks, func() error {
		var err error
		res.Bridging, err = bridge.RunContext(ctx, res.Netlist, opts.Bridging)
		return err
	})
	if err != nil {
		return nil, err
	}

	err = runStage(res.Breakdown, metrics.StagePlacement, StagePlacement, opts.Hooks, func() error {
		cl, err := cluster.Build(res.Netlist, cluster.Options{
			PrimalGroups: opts.PrimalGroups,
			MaxGroupSize: opts.MaxGroupSize,
			NoBoxes:      opts.NoBoxes,
		})
		if err != nil {
			return err
		}
		res.Clustering = cl
		return res.placeWithRetry(ctx, cl, opts)
	})
	if err != nil {
		return nil, err
	}

	err = runStage(res.Breakdown, metrics.StageRouting, StageRouting, opts.Hooks, func() error {
		ropts := opts.Route
		if ropts.Clock == nil {
			// Inject a monotonic clock so the router can attribute time to
			// its sub-stages without reading the wall clock itself (the
			// route package is inside the detrand determinism scope).
			start := time.Now()
			ropts.Clock = func() time.Duration { return time.Since(start) }
		}
		var err error
		res.Routing, err = route.RunContext(ctx, res.Placement, ropts)
		if err != nil {
			return err
		}
		res.Degraded = res.Routing.Degraded
		if n := len(res.Routing.FallbackNets); n > 0 {
			res.Breakdown.Count(metrics.CounterFallbackNets, n)
		}
		if n := len(res.Routing.Failed); n > 0 {
			res.Breakdown.Count(metrics.CounterUnroutedNets, n)
			if opts.StrictRouting {
				return fmt.Errorf("%w: %d net(s) failed negotiation and fallback", faults.ErrUnroutable, n)
			}
		}
		if res.Degraded {
			res.Breakdown.Count(metrics.CounterDegradations, 1)
		}
		return nil
	})
	if err != nil {
		return nil, err
	}

	b := res.Routing.Bounds
	res.Dims = metrics.Dims{W: b.Dy(), H: b.Dz(), D: b.Dx()}
	res.Volume = res.Dims.Volume()
	return res, nil
}

// placeWithRetry runs SA placement, re-validating the result and retrying
// with a derived seed and an escalated iteration budget when validation
// fails. Hard errors (cancellation, recovered chain panics) are not
// retried.
func (res *Result) placeWithRetry(ctx context.Context, cl *cluster.Clustering, opts Options) error {
	attempts := opts.Retry.MaxAttempts
	if attempts < 1 {
		attempts = 1
	}
	esc := opts.Retry.Escalation
	if esc <= 1 {
		esc = 2
	}
	popts := opts.Place
	budget := popts.EffectiveIterations(len(cl.Supers))
	var lastErr error
	for attempt := 0; attempt < attempts; attempt++ {
		if attempt > 0 {
			// Derived seed + escalated budget: a fresh SA trajectory
			// with more moves, reproducible from the original seed.
			popts.Seed = opts.Place.Seed + 1000003*int64(attempt)
			budget = int(float64(budget) * esc)
			popts.Iterations = budget
			res.Breakdown.Count(metrics.CounterPlacementRetries, 1)
		}
		pl, err := place.RunContext(ctx, cl, res.Bridging.Nets, popts)
		if err != nil {
			return err
		}
		res.Placement = pl
		res.PlacementAttempts = attempt + 1
		if err := pl.CheckNoOverlap(); err != nil {
			lastErr = err
			continue
		}
		if err := pl.CheckTimeOrdering(); err != nil {
			lastErr = err
			continue
		}
		return nil
	}
	return fmt.Errorf("%w after %d attempt(s): %w", faults.ErrPlacementInvalid, attempts, lastErr)
}

// CompileBenchmark generates one of the paper's RevLib benchmarks and
// compiles it.
func CompileBenchmark(name string, opts Options) (*Result, error) {
	spec, err := qc.BenchmarkByName(name)
	if err != nil {
		return nil, err
	}
	c, err := spec.Generate()
	if err != nil {
		return nil, err
	}
	return Compile(c, opts)
}

// Verify re-checks the result's structural guarantees: placement overlap
// freedom, time-ordering constraints, and routing legality. Degraded
// routing (fallback-routed or unrouted nets) fails verification with
// ErrDegraded/ErrUnroutable so a silently-degraded result cannot pass.
// It is meant for tests and examples; Compile's stages already maintain
// these invariants.
func (r *Result) Verify() error {
	if err := r.Netlist.Validate(); err != nil {
		return err
	}
	if err := r.Placement.CheckNoOverlap(); err != nil {
		return err
	}
	if err := r.Placement.CheckTimeOrdering(); err != nil {
		return err
	}
	return route.Verify(r.Placement, r.Routing)
}
