// Package suppress is a golden fixture for the suppression machinery
// itself: directive placement, multi-analyzer directives, and
// directives that name the wrong analyzer. (Malformed directives are
// covered by unit tests in the analysis package.)
package suppress

import (
	"time"

	"pbqprl/internal/cost"
)

func trailing(a, b cost.Cost) bool {
	return a == b //pbqpvet:ignore costarith trailing directives suppress their own line
}

func above(a, b cost.Cost) bool {
	//pbqpvet:ignore costarith standalone directives suppress the next line
	return a < b
}

func multiName(a cost.Cost) cost.Cost {
	if a != 3 { // want "raw != on cost.Cost"
		//pbqpvet:ignore costarith,determinism one directive may silence several analyzers
		return a + cost.Cost(time.Now().Unix())
	}
	return a
}

func wrongName(a, b cost.Cost) bool {
	//pbqpvet:ignore determinism this names the wrong analyzer, so costarith still fires
	return a == b // want "raw == on cost.Cost"
}

func tooFar(a, b cost.Cost) bool {
	//pbqpvet:ignore costarith directives reach one line, not two

	return a == b // want "raw == on cost.Cost"
}
