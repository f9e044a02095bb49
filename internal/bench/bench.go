// Package bench wires the substrates together into the paper's
// experiments: one function per figure/table of §5, shared by cmd/paper
// and by the root testing.B benchmarks. Each function returns
// structured rows so callers can print the same tables and series the
// paper reports.
package bench

import (
	"repro/internal/obs"
	"repro/internal/stack"
)

// The environment is a served stack (stack.OpenGrid). These names are the
// ones benchmarks/harness/stack.go pins.
type (
	Env         = stack.Stack
	GridConfig  = stack.GridConfig
	BackendKind = string
)

// The backends of §5.1 and the default NVMM fence latency.
const (
	JPDT           = stack.JPDT
	JPFA           = stack.JPFA
	PCJ            = stack.PCJ
	FS             = stack.FS
	TmpFS          = stack.TmpFS
	NullFS         = stack.NullFS
	Volatile       = stack.Volatile
	DefaultFenceNs = stack.DefaultFenceNs
)

// NewEnv opens the served stack of cfg and publishes it on the default
// metrics registry (the -metrics-addr listener); replace semantics keep
// the live env visible as experiments cycle through environments.
func NewEnv(cfg GridConfig) (*Env, error) {
	env, err := stack.OpenGrid(cfg)
	if err != nil {
		return nil, err
	}
	obs.Default.Publish("bench_env", func() any { return env.Snapshot() })
	return env, nil
}
