package experiments

import (
	"context"

	"coplot/internal/engine"
	"coplot/internal/obs"
	"coplot/internal/sites"
	"coplot/internal/store"
	"coplot/internal/swf"
)

// Env is the per-run environment every experiment receives: the run
// configuration plus the artifact store memoizing the shared upstream
// artifacts — generated production-site logs, the Table 1/2 workload
// tables, the synthetic model logs, and the Table 3 Hurst matrix — so
// each is derived exactly once per run no matter how many experiments
// consume it or on how many workers they run.
//
// Every random stream below is a pure function of Cfg (seeds are
// derived per site, per model, per study — never drawn from a shared
// stateful source), so a parallel run reproduces the serial byte
// stream exactly.
type Env struct {
	// Cfg is the run configuration, defaults filled.
	Cfg Config
	// Store memoizes the run's shared artifacts. Values placed in the
	// store are treated as immutable by all readers.
	Store *engine.Store
}

// NewEnv builds the environment of one run, its artifacts held in
// memory with no event sink.
func NewEnv(cfg Config) *Env { return newEnv(cfg, nil) }

// newEnv is NewEnv with the store's cache events routed to sink.
func newEnv(cfg Config, sink obs.Sink) *Env {
	return &Env{Cfg: cfg.WithDefaults(), Store: engine.NewStore(store.NewMemory(0), sink)}
}

// siteLogs returns the ten generated production-site logs of Table 1,
// computed once per run: Table 1, Table 3, the moment-stability study
// and the bootstrap confidence intervals all read them.
func (e *Env) siteLogs(ctx context.Context) (map[string]*swf.Log, error) {
	return engine.Memo(e.Store, "artifact:sitelogs", func() (map[string]*swf.Log, error) {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		return sites.GenerateAll(sites.Table1Specs(e.Cfg.Jobs), e.Cfg.Seed)
	})
}
