package main

import (
	"strings"
	"testing"

	"edm"
)

func TestParsePolicy(t *testing.T) {
	// The -policy flag goes through edm.ParsePolicy, which is
	// case-insensitive and also accepts the figure labels.
	cases := []struct {
		in      string
		want    edm.Policy
		wantErr bool
	}{
		{"baseline", edm.PolicyBaseline, false},
		{"cmt", edm.PolicyCMT, false},
		{"hdf", edm.PolicyHDF, false},
		{"cdf", edm.PolicyCDF, false},
		{"HDF", edm.PolicyHDF, false},
		{"EDM-HDF", edm.PolicyHDF, false},
		{"", 0, true},
		{"bogus", 0, true},
	}
	for _, c := range cases {
		got, err := edm.ParsePolicy(c.in)
		if c.wantErr {
			if err == nil {
				t.Errorf("ParsePolicy(%q): want error, got %v", c.in, got)
			} else if !strings.Contains(err.Error(), "baseline") {
				t.Errorf("ParsePolicy(%q) error %q should list valid policies", c.in, err)
			}
			continue
		}
		if err != nil {
			t.Errorf("ParsePolicy(%q): %v", c.in, err)
		} else if got != c.want {
			t.Errorf("ParsePolicy(%q) = %v, want %v", c.in, got, c.want)
		}
	}
}
