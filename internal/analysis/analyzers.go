package analysis

// All returns every analyzer in the suite, in report-name order.
func All() []*Analyzer {
	return []*Analyzer{
		CostArith, LockOrder,
	}
}

// ByName resolves a comma-separable analyzer name, or nil.
func ByName(name string) *Analyzer {
	for _, a := range All() {
		if a.Name == name {
			return a
		}
	}
	return nil
}
