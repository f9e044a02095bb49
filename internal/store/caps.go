package store

// Caps is a backend's capability descriptor: the optional operations it
// supports beyond Backend, one interface-typed field each, nil meaning
// absent. It is the only way the grid learns what a backend can do —
// nothing type-asserts a Backend — so a wrapper that forwards a backend
// forwards exactly the capabilities its descriptor names, and a dropped
// one is an absent field instead of a silent slow path.
type Caps struct {
	View  ViewReader
	Delta DeltaAdder
}
