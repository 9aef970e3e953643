package main

import (
	"reflect"
	"strings"
	"testing"

	"edm/internal/experiment"
)

func TestParseExperiments(t *testing.T) {
	cases := []struct {
		in      string
		want    []string
		wantErr bool
	}{
		{"all", allExperiments(), false},
		{"stress", []string{"stress"}, false},
		{"all,stress", append(allExperiments(), "stress"), false},
		{"fig5", []string{"fig5"}, false},
		{"fig1,fig6", []string{"fig1", "fig6"}, false},
		{" Table1 , FIG7 ", []string{"table1", "fig7"}, false},
		{"fig9", nil, true},
		{"fig1,bogus", nil, true},
		{"", nil, true},
		{",", nil, true},
	}
	for _, c := range cases {
		got, err := parseExperiments(c.in)
		if c.wantErr {
			if err == nil {
				t.Errorf("parseExperiments(%q): want error, got %v", c.in, got)
			} else if !strings.Contains(err.Error(), "valid:") ||
				!strings.Contains(err.Error(), "table1") {
				t.Errorf("parseExperiments(%q) error %q should list valid experiments", c.in, err)
			}
			continue
		}
		if err != nil {
			t.Errorf("parseExperiments(%q): %v", c.in, err)
			continue
		}
		if len(got) != len(c.want) {
			t.Errorf("parseExperiments(%q) = %v, want %v", c.in, got, c.want)
			continue
		}
		for _, name := range c.want {
			if !got[name] {
				t.Errorf("parseExperiments(%q) missing %q", c.in, name)
			}
		}
	}
}

// allExperiments is what "all" must expand to: every experiment
// except stress, which is opt-in by name.
func allExperiments() []string {
	var out []string
	for _, k := range experimentNames {
		if k != "stress" {
			out = append(out, k)
		}
	}
	return out
}

// TestParseOSDCounts checks the -osds values edmbench hands to the shared
// experiment.ParseOSDCounts, and that a bad value is reported by flag name.
func TestParseOSDCounts(t *testing.T) {
	cases := []struct {
		in      string
		want    []int
		wantErr bool
	}{
		{"16", []int{16}, false},
		{"16,20", []int{16, 20}, false},
		{" 8 , 12 ", []int{8, 12}, false},
		{"", nil, true},
		{"0", nil, true},
		{"-4", nil, true},
		{"16,x", nil, true},
	}
	for _, c := range cases {
		got, err := experiment.ParseOSDCounts(c.in)
		if c.wantErr {
			if err == nil {
				t.Errorf("ParseOSDCounts(%q): want error, got %v", c.in, got)
			} else if !strings.Contains(err.Error(), "-osds") {
				t.Errorf("ParseOSDCounts(%q) error %q does not name -osds", c.in, err)
			}
			continue
		}
		if err != nil {
			t.Errorf("ParseOSDCounts(%q): %v", c.in, err)
			continue
		}
		if !reflect.DeepEqual(got, c.want) {
			t.Errorf("ParseOSDCounts(%q) = %v, want %v", c.in, got, c.want)
		}
	}
}
