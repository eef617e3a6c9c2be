package analysis

// All returns the full analyzer suite in a stable order. cmd/rcptlint
// runs exactly this set; fixture tests exercise each member alone.
func All() []*Analyzer {
	return []*Analyzer{
		CtxProp,
		ErrDrop,
		FloatFold,
		MapOrder,
		NondetFlow,
		PanicSafe,
		RNGPurity,
		SplitShare,
	}
}
