package tqec

import (
	"errors"
	"fmt"

	"repro/internal/faults"
)

// Stage names a pipeline stage in StageError and in the Hooks callbacks.
type Stage string

// The pipeline stages, in execution order.
const (
	StagePreprocess Stage = "preprocess" // decompose, ICM, canonical, modularization
	StageZXRewrite  Stage = "zx-rewrite" // ZX-calculus pre-compression of the decomposed circuit
	StageBridging   Stage = "bridging"
	StagePlacement  Stage = "placement"
	StageRouting    Stage = "routing"
)

// Sentinel errors of the failure taxonomy. They are shared with the
// internal stage packages (via internal/faults), so errors.Is works on
// errors produced anywhere in the pipeline.
var (
	// ErrCanceled marks work aborted by context cancellation/deadline.
	ErrCanceled = faults.ErrCanceled
	// ErrUnroutable marks nets that exhausted every routing strategy.
	ErrUnroutable = faults.ErrUnroutable
	// ErrPlacementInvalid marks a placement failing structural
	// validation after all retry attempts.
	ErrPlacementInvalid = faults.ErrPlacementInvalid
	// ErrDegraded marks a result produced under graceful degradation.
	ErrDegraded = faults.ErrDegraded
	// ErrPanic marks a recovered panic converted into a StageError.
	ErrPanic = faults.ErrPanic
)

// StageError tags a pipeline failure with the stage that produced it. A
// panic recovered by the pipeline guard is converted into a StageError
// wrapping ErrPanic with the goroutine stack attached.
type StageError struct {
	// Stage is the pipeline stage that failed.
	Stage Stage
	// Err is the underlying cause.
	Err error
	// Stack holds the goroutine stack when Err stems from a recovered
	// panic; nil otherwise.
	Stack []byte
}

// Error implements error.
func (e *StageError) Error() string {
	return fmt.Sprintf("tqec: stage %s: %v", e.Stage, e.Err)
}

// Unwrap exposes the cause to errors.Is/As.
func (e *StageError) Unwrap() error { return e.Err }

// AsStageError extracts the StageError from an error chain, if any.
func AsStageError(err error) (*StageError, bool) {
	var se *StageError
	if errors.As(err, &se) {
		return se, true
	}
	return nil, false
}

// stageError wraps err (not already a StageError) with its stage tag,
// normalizing cancellation causes so errors.Is(err, ErrCanceled) holds for
// any context-induced abort.
func stageError(stage Stage, err error) error {
	var se *StageError
	if errors.As(err, &se) {
		return err
	}
	if faults.IsCancellation(err) && !errors.Is(err, ErrCanceled) {
		err = fmt.Errorf("%w: %w", ErrCanceled, err)
	}
	return &StageError{Stage: stage, Err: err}
}
