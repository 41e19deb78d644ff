package sim

import "micromama/internal/prefetch"

// Controller owns the L2 prefetch engines of every core and decides how
// they are (re)configured over time. The paper's Bandit and µMama
// designs implement this interface in package core; fixed baselines
// (no prefetching, Bingo, Pythia, ...) use FixedController.
type Controller interface {
	// Name identifies the controller in reports.
	Name() string
	// Attach binds the controller to the system before simulation
	// starts; the controller may keep the *System to read per-core
	// instruction/cycle counters when computing interval rewards.
	Attach(sys *System)
	// Engine returns core i's L2 prefetch engine. Called once per core
	// at attach time; the controller mutates the engine's configuration
	// afterwards (e.g. switching Bandit arms).
	Engine(core int) prefetch.Prefetcher
	// OnL2Demand is invoked after each demand access to core i's L2 at
	// core-local cycle now. This is the event that drives agent
	// timesteps (the paper's step = 800 L2 demand accesses).
	OnL2Demand(core int, now uint64)
}

// FixedController runs a static prefetcher in every L2 (or none).
type FixedController struct {
	name    string
	factory func(core int) prefetch.Prefetcher
	engines []prefetch.Prefetcher
}

// NewFixedController builds a controller whose engines never change.
// factory is called once per core.
func NewFixedController(name string, factory func(core int) prefetch.Prefetcher) *FixedController {
	return &FixedController{name: name, factory: factory}
}

// NoPrefetchController disables L2 prefetching entirely.
func NoPrefetchController() *FixedController {
	return NewFixedController("no", func(int) prefetch.Prefetcher { return prefetch.None{} })
}

// Name implements Controller.
func (f *FixedController) Name() string { return f.name }

// Attach implements Controller.
func (f *FixedController) Attach(sys *System) {
	f.engines = make([]prefetch.Prefetcher, sys.Config().Cores)
	for i := range f.engines {
		f.engines[i] = f.factory(i)
	}
}

// Engine implements Controller.
func (f *FixedController) Engine(core int) prefetch.Prefetcher { return f.engines[core] }

// OnL2Demand implements Controller; fixed engines ignore timesteps.
func (f *FixedController) OnL2Demand(core int, now uint64) {}
