// Package costarith is a golden fixture for the costarith analyzer:
// raw arithmetic and comparison on cost.Cost outside internal/cost.
package costarith

import "pbqprl/internal/cost"

func rawOps(a, b cost.Cost) cost.Cost {
	c := a + b // want "raw + on cost.Cost"
	c = a - b  // want "raw - on cost.Cost"
	c = a * b  // want "raw * on cost.Cost"
	c = a / b  // want "raw / on cost.Cost"
	c += a     // want "raw += on cost.Cost"
	c++        // want "raw ++ on cost.Cost"
	return c
}

func rawCompares(a, b cost.Cost) bool {
	if a == b { // want "raw == on cost.Cost"
		return true
	}
	if a != cost.Inf { // want "raw != on cost.Cost"
		return true
	}
	return a < b // want "raw < on cost.Cost"
}

// mixed operands are flagged too: the untyped constant converts to Cost.
func mixed(a cost.Cost) cost.Cost {
	return a + 1 // want "raw + on cost.Cost"
}

// viaMethods is the correct form and stays silent.
func viaMethods(a, b cost.Cost) cost.Cost {
	if a.IsInf() || a.Less(b) || a.IsZero() {
		return a.Add(b)
	}
	return cost.Inf
}

// plainFloats are not costs and stay silent.
func plainFloats(x, y float64) float64 {
	return x + y*2
}
