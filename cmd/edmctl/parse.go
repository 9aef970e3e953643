package main

import (
	"fmt"
	"strings"
)

// sweepFigures lists the matrix projections edmctl can render: the
// figures whose cells are independent (trace, size, policy) runs and
// therefore shard over a fleet.
var sweepFigures = []string{"fig5", "fig6", "fig8"}

// parseFigures expands the comma-separated -exp flag, rejecting
// non-matrix experiments upfront with an error naming every valid
// option.
func parseFigures(s string) ([]string, error) {
	var out []string
	seen := map[string]bool{}
	for _, e := range strings.Split(s, ",") {
		e = strings.TrimSpace(strings.ToLower(e))
		if e == "" {
			continue
		}
		if e == "all" {
			for _, k := range sweepFigures {
				if !seen[k] {
					seen[k] = true
					out = append(out, k)
				}
			}
			continue
		}
		known := false
		for _, k := range sweepFigures {
			if e == k {
				known = true
				break
			}
		}
		if !known {
			return nil, fmt.Errorf("unknown sweep experiment %q (valid: %s, all)",
				e, strings.Join(sweepFigures, ", "))
		}
		if !seen[e] {
			seen[e] = true
			out = append(out, e)
		}
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("no experiments selected (valid: %s, all)",
			strings.Join(sweepFigures, ", "))
	}
	return out, nil
}

// parseWorkers splits the comma-separated -workers list of edmd base
// URLs; empty means run locally.
func parseWorkers(s string) []string {
	var out []string
	for _, part := range strings.Split(s, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		if !strings.Contains(part, "://") {
			part = "http://" + part
		}
		out = append(out, strings.TrimRight(part, "/"))
	}
	return out
}

// parseTraces splits the comma-separated -traces list; empty keeps the
// default (all seven profiles).
func parseTraces(s string) []string {
	var out []string
	for _, part := range strings.Split(s, ",") {
		part = strings.TrimSpace(part)
		if part != "" {
			out = append(out, part)
		}
	}
	return out
}
