package obs

import "context"

// trackerKey is the context key carrying a *Tracker.
type trackerKey struct{}

// WithTracker returns a context carrying t. The long-running entry points
// (round-complex construction, crash-schedule enumeration, decision search,
// homology reduction) pick the tracker up with FromContext, so the same
// context threads cancellation and observability together.
func WithTracker(ctx context.Context, t *Tracker) context.Context {
	return context.WithValue(ctx, trackerKey{}, t)
}

// FromContext returns the tracker carried by ctx, or nil — and every
// Tracker method is nil-safe, so callers use the result unconditionally.
func FromContext(ctx context.Context) *Tracker {
	t, _ := ctx.Value(trackerKey{}).(*Tracker)
	return t
}
