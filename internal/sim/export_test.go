package sim

// SetOrderHook installs f to observe, for each sequential compiled run,
// whether its departures came from a precomputed order, and returns a
// function restoring the previous observer.
func SetOrderHook(f func(ordered bool)) (restore func()) {
	prev := orderHook
	orderHook = f
	return func() { orderHook = prev }
}

// RankBuilds returns how many departure rankings of traces have been
// built so far, cached or declined.
func RankBuilds() int64 { return rankBuilds.Load() }
