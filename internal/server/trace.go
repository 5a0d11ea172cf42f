package server

// Causal trace plumbing: the context key that threads a trace ID from a
// client call site through DoContext into the wire protocol, and the
// /debug/trace HTTP handler serving the flight recorder in Perfetto form.

import (
	"context"
	"net/http"
)

// traceIDKey carries a caller-chosen wire trace ID on a context.
type traceIDKey struct{}

// WithTraceID returns a context carrying a causal trace ID. Client
// DoContext sends the ID in the request frame; the serving worker records
// the op's execution span under it, so the request's timing joins its
// shard's reclamation timeline on /debug/trace. IDs are caller-chosen —
// any non-zero uint64 (0 means untraced); uniqueness is the caller's
// concern, collisions merely merge spans under one label.
func WithTraceID(ctx context.Context, id uint64) context.Context {
	return context.WithValue(ctx, traceIDKey{}, id)
}

// TraceIDFrom returns the trace ID carried by ctx (0 = untraced).
func TraceIDFrom(ctx context.Context) uint64 {
	id, _ := ctx.Value(traceIDKey{}).(uint64)
	return id
}

// TraceHandler serves the engine's flight recorder as a Perfetto /
// chrome://tracing JSON trace (load it at https://ui.perfetto.dev). It is
// the recorder's only export: the snapshot never blocks the writing
// workers.
func TraceHandler(e *Engine) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		_ = e.obs.rec.WriteTraceJSON(w)
	})
}
