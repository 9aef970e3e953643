package main

import (
	"fmt"
	"strings"
)

// experimentNames lists the valid -exp values in run order. "stress"
// (the randomized fault-injection harness) must be requested by name:
// "all" reproduces the paper's evaluation and excludes it.
var experimentNames = []string{
	"check", "table1", "fig1", "fig3", "fig5", "fig6", "fig7", "fig8",
	"ablation", "reliability", "stress",
}

// parseExperiments expands the comma-separated -exp flag into the
// requested experiment set, rejecting unknown names upfront (before any
// simulation time is spent) with an error naming every valid option.
func parseExperiments(s string) (map[string]bool, error) {
	want := map[string]bool{}
	for _, e := range strings.Split(s, ",") {
		e = strings.TrimSpace(strings.ToLower(e))
		if e == "" {
			continue
		}
		if e == "all" {
			for _, k := range experimentNames {
				if k == "stress" {
					continue
				}
				want[k] = true
			}
			continue
		}
		known := false
		for _, k := range experimentNames {
			if e == k {
				known = true
				break
			}
		}
		if !known {
			return nil, fmt.Errorf("unknown experiment %q (valid: %s, all)",
				e, strings.Join(experimentNames, ", "))
		}
		want[e] = true
	}
	if len(want) == 0 {
		return nil, fmt.Errorf("no experiments selected (valid: %s, all)",
			strings.Join(experimentNames, ", "))
	}
	return want, nil
}
