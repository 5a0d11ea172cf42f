package ibr

import (
	"context"

	"ibr/internal/mem"
	"ibr/internal/obs"
	"ibr/internal/server"
)

// This file is the public face of the serving layer: the sharded engine,
// the TCP server, and the pipelined context-aware client, re-exported so
// applications embed the KV service without importing internal packages
// (ExampleDialServer serves and queries an engine through it alone). The
// commands do not use it: cmd/ibrd and cmd/ibrload import internal/server,
// and ibrload also internal/harness's load loop.

// Engine is the sharded KV engine (see internal/server): per-shard IBR
// structures whose few scheme tids callers borrow under a lock per request,
// with stall quarantine and watermark admission control built in.
type Engine = server.Engine

// EngineConfig sizes an Engine; the zero value of every field selects a
// sensible default.
type EngineConfig = server.EngineConfig

// Server is the TCP front end over an Engine.
type Server = server.Server

// ServerConfig tunes the connection front end.
type ServerConfig = server.ServerConfig

// Client is a pipelined, context-aware connection to a served Engine.
type Client = server.Client

// ClientOption configures a Client at dial time (see WithRetry).
type ClientOption = server.ClientOption

// RetryPolicy shapes a retrying client's jittered exponential backoff on
// StatusBusy responses (see WithRetry).
type RetryPolicy = server.RetryPolicy

// Request is one typed operation — the unit of Client.DoContext and
// Engine.SubmitRequest. Optional fields (KeyHi, TTL, Limit, TraceID) are
// zero for ops that don't use them.
type Request = server.Request

// Response is one operation's result; Pairs is set only for Range.
type Response = server.Response

// Pair is one key→value result of a Range scan.
type Pair = server.Pair

// Op is a wire operation code; Status a wire response code.
type (
	Op     = server.Op
	Status = server.Status
)

// ObsOptions tunes the engine's observability layer (EngineConfig.Obs).
type ObsOptions = obs.Options

// SchemeObs is a per-structure scheme observer (Config.Obs); build one
// with NewSchemeObs when embedding the library without the engine.
type SchemeObs = obs.SchemeObs

// SchemeObsConfig configures NewSchemeObs.
type SchemeObsConfig = obs.SchemeObsConfig

// NewSchemeObs builds a scheme observer for Config.Obs.
func NewSchemeObs(cfg SchemeObsConfig) *SchemeObs { return obs.NewSchemeObs(cfg) }

// Wire operation and status codes, re-exported verbatim.
const (
	OpPing  = server.OpPing
	OpGet   = server.OpGet
	OpPut   = server.OpPut
	OpDel   = server.OpDel
	OpRange = server.OpRange

	StatusOK          = server.StatusOK
	StatusNotFound    = server.StatusNotFound
	StatusExists      = server.StatusExists
	StatusBusy        = server.StatusBusy
	StatusShutdown    = server.StatusShutdown
	StatusBadRequest  = server.StatusBadRequest
	StatusInternal    = server.StatusInternal
	StatusUnsupported = server.StatusUnsupported
)

// Typed sentinels, all errors.Is-comparable:
//
//   - ErrBusy: a shard queue was full, or a retrying client ran out of
//     attempts against busy responses — transient overload, retry with
//     backoff.
//   - ErrShedding: a shard is refusing work while its unreclaimed backlog
//     sits above the hard watermark; also transient, but caused by
//     reclamation lag rather than request volume.
//   - ErrClosed: the engine (or client) is shut down — permanent.
//   - ErrPoolExhausted: a node pool ran out of slots; the serving path
//     converts it to StatusBusy instead of failing.
var (
	ErrBusy          = server.ErrBusy
	ErrShedding      = server.ErrShedding
	ErrClosed        = server.ErrClosed
	ErrPoolExhausted = mem.ErrPoolExhausted
)

// NewEngine builds the shards and starts the workers, stallers, and the
// remediation loop.
func NewEngine(cfg EngineConfig) (*Engine, error) { return server.NewEngine(cfg) }

// NewServer wraps an Engine in the TCP front end.
func NewServer(e *Engine, cfg ServerConfig) *Server { return server.NewServer(e, cfg) }

// DialServer connects a Client to a served Engine. Options configure the
// client — notably WithRetry, which makes DoContext transparently retry
// StatusBusy responses.
func DialServer(addr string, opts ...ClientOption) (*Client, error) {
	return server.Dial(addr, opts...)
}

// WithRetry makes a Client's DoContext transparently retry StatusBusy
// responses under p with jittered exponential backoff.
func WithRetry(p RetryPolicy) ClientOption { return server.WithRetry(p) }

// WithTraceID returns a context carrying a causal trace ID; Client.DoContext
// sends it in the request frame and the serving worker records the op's
// execution span under it (see /debug/trace). 0 means untraced.
func WithTraceID(ctx context.Context, id uint64) context.Context {
	return server.WithTraceID(ctx, id)
}

// TraceIDFrom returns the trace ID carried by ctx (0 = untraced).
func TraceIDFrom(ctx context.Context) uint64 { return server.TraceIDFrom(ctx) }
