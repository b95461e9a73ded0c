package bench

// Verdict is one named accounting identity or acceptance gate: LHS
// compared to RHS under the relation of the constructor that built it.
// Every reconciliation identity and experiment threshold the harness
// checks is a Verdict, computed once here in Go; sphinxbench collects
// them from every report and exits non-zero on any false one. The zero
// Verdict fails, so a gate whose input is missing reports as a named
// failed verdict instead of being skipped.
type Verdict struct {
	Name string  `json:"name"`
	LHS  float64 `json:"lhs"`
	RHS  float64 `json:"rhs"`
	Pass bool    `json:"pass"`
}

type number interface{ ~int | ~uint64 | ~float64 }

// equal holds when lhs == rhs. The identities compare exact counters,
// which float64 represents exactly below 2^53.
func equal[T number](name string, lhs, rhs T) Verdict {
	return Verdict{name, float64(lhs), float64(rhs), lhs == rhs}
}

// atLeast holds when lhs >= rhs.
func atLeast[T number](name string, lhs, rhs T) Verdict {
	return Verdict{name, float64(lhs), float64(rhs), lhs >= rhs}
}

// below holds when lhs < rhs.
func below[T number](name string, lhs, rhs T) Verdict {
	return Verdict{name, float64(lhs), float64(rhs), lhs < rhs}
}

// above holds when lhs > rhs.
func above[T number](name string, lhs, rhs T) Verdict {
	return Verdict{name, float64(lhs), float64(rhs), lhs > rhs}
}

// require returns the verdict named want from vs under a new name, or a
// failed verdict of that name when vs carries none: a gate that needs an
// identity evaluated fails closed when it was not.
func require(name string, vs []Verdict, want string) Verdict {
	for _, v := range vs {
		if v.Name == want {
			v.Name = name
			return v
		}
	}
	return Verdict{Name: name}
}

// evaluated counts the verdicts named want across the results.
func evaluated(results []Result, want string) int {
	n := 0
	for _, r := range results {
		for _, v := range r.Verdicts {
			if v.Name == want {
				n++
			}
		}
	}
	return n
}
