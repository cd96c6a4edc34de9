package lockfreetrie

import "repro/internal/adapt"

// Test-only exports: the facade deliberately has no public "resize now"
// entry point (migrations are the decision layer's job), but the
// resize-aware facade suites need deterministic transitions; and the
// adaptive and latency suites need tuning no public option exposes.

// ForceResize synchronously re-partitions a WithAdaptiveShards trie.
func ForceResize(t *Trie, k int) error { return t.rz.Resize(k) }

// WithAdaptiveTuning is WithAdaptiveCombining with explicit controller
// tuning (zero fields take the defaults), so test-sized workloads can
// sample and flip fast.
func WithAdaptiveTuning(cfg adapt.Config) Option {
	return func(c *config) error {
		c.adaptive = true
		c.acfg = cfg
		return nil
	}
}

// SetLatencySampling sets the op-latency sampling cadence of an
// observed trie (n = 1 times every operation). Call before concurrent
// use: the cadence is a plain field.
func SetLatencySampling(t *Trie, n int64) { t.obs.every = n }
