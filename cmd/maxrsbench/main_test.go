package main

import (
	"math"
	"testing"
)

func TestValidateFlags(t *testing.T) {
	for _, tc := range []struct {
		name            string
		scale, bufscale float64
		parallel        int
		ok              bool
	}{
		{"paper scale", 1, 0, 0, true},
		{"grid scale", 0.05, 0, 1, true},
		{"explicit bufscale", 0.05, 0.1, 8, true},
		{"zero scale", 0, 0, 0, false},
		{"negative scale", -0.01, 0, 0, false},
		{"NaN scale", math.NaN(), 0, 0, false},
		{"negative bufscale", 0.05, -0.01, 0, false},
		{"NaN bufscale", 0.05, math.NaN(), 0, false},
		{"negative parallel", 0.05, 0, -1, false},
	} {
		err := validateFlags(tc.scale, tc.bufscale, tc.parallel)
		if (err == nil) != tc.ok {
			t.Errorf("%s: validateFlags(%g, %g, %d) = %v, want ok=%v",
				tc.name, tc.scale, tc.bufscale, tc.parallel, err, tc.ok)
		}
	}
}
