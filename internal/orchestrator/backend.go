package orchestrator

import (
	"context"

	"repro/internal/service"
)

// Backend executes one normalized spec and returns the full service
// result: the canonical report bytes, how they were served, and — when
// the backend executed with prefix memoization — the memo detail.
// Implementations must be safe for concurrent use; the dispatcher runs
// many specs against one backend at a time.
type Backend interface {
	Name() string
	Run(ctx context.Context, spec service.RunSpec) (service.Result, error)
}

// LocalBackend wraps an in-process service.Service: the zero-setup
// backend every cuttlefish experiment runs on when no -remote or
// -backend URL is given. With a store-backed service it persists results
// exactly like a cfserve instance would.
type LocalBackend struct {
	Service *service.Service
	// Label names the backend in progress output ("" = "local").
	Label string
}

func (b *LocalBackend) Name() string {
	if b.Label != "" {
		return b.Label
	}
	return "local"
}

func (b *LocalBackend) Run(ctx context.Context, spec service.RunSpec) (service.Result, error) {
	return b.Service.Submit(ctx, spec)
}

// RemoteBackend wraps a cfserve instance through service.Client. The
// client already absorbs 429 backpressure with jittered backoff, so by
// the time an error reaches the dispatcher the backend is genuinely
// unreachable or saturated beyond patience — a failover case.
type RemoteBackend struct {
	Client *service.Client
}

// NewRemoteBackend points a backend at a cfserve base URL.
func NewRemoteBackend(url string) *RemoteBackend {
	return &RemoteBackend{Client: &service.Client{BaseURL: url}}
}

func (b *RemoteBackend) Name() string { return b.Client.BaseURL }

func (b *RemoteBackend) Run(ctx context.Context, spec service.RunSpec) (service.Result, error) {
	return b.Client.RunResult(ctx, spec)
}
