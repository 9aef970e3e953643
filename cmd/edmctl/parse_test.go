package main

import (
	"reflect"
	"strings"
	"testing"

	"edm/internal/experiment"
)

func TestParseFigures(t *testing.T) {
	for _, tc := range []struct {
		in      string
		want    []string
		wantErr bool
	}{
		{"fig5", []string{"fig5"}, false},
		{"fig5,fig8", []string{"fig5", "fig8"}, false},
		{"fig8, FIG5 ,fig8", []string{"fig8", "fig5"}, false},
		{"all", []string{"fig5", "fig6", "fig8"}, false},
		{"fig5,all", []string{"fig5", "fig6", "fig8"}, false},
		{"fig7", nil, true},
		{"", nil, true},
		{",", nil, true},
	} {
		got, err := parseFigures(tc.in)
		if (err != nil) != tc.wantErr {
			t.Errorf("parseFigures(%q) err = %v, wantErr %v", tc.in, err, tc.wantErr)
			continue
		}
		if err == nil && !reflect.DeepEqual(got, tc.want) {
			t.Errorf("parseFigures(%q) = %v, want %v", tc.in, got, tc.want)
		}
	}
}

// TestParseOSDCounts checks the -osds values edmctl hands to the shared
// experiment.ParseOSDCounts, and that a bad value is reported by flag name.
func TestParseOSDCounts(t *testing.T) {
	if got, err := experiment.ParseOSDCounts("16, 20"); err != nil || !reflect.DeepEqual(got, []int{16, 20}) {
		t.Errorf("ParseOSDCounts(\"16, 20\") = %v, %v", got, err)
	}
	for _, bad := range []string{"", "16,zero", "0", "-4"} {
		_, err := experiment.ParseOSDCounts(bad)
		if err == nil {
			t.Errorf("ParseOSDCounts(%q): want error", bad)
		} else if !strings.Contains(err.Error(), "-osds") {
			t.Errorf("ParseOSDCounts(%q) error %q does not name -osds", bad, err)
		}
	}
}

func TestParseWorkers(t *testing.T) {
	got := parseWorkers(" localhost:8080, http://h2:9/ ,, https://h3 ")
	want := []string{"http://localhost:8080", "http://h2:9", "https://h3"}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("parseWorkers = %v, want %v", got, want)
	}
	if got := parseWorkers(""); got != nil {
		t.Errorf("parseWorkers(\"\") = %v, want nil", got)
	}
}

func TestParseTraces(t *testing.T) {
	if got := parseTraces("home02, lair62b"); !reflect.DeepEqual(got, []string{"home02", "lair62b"}) {
		t.Errorf("parseTraces = %v", got)
	}
	if got := parseTraces(""); got != nil {
		t.Errorf("parseTraces(\"\") = %v, want nil (default set)", got)
	}
}
