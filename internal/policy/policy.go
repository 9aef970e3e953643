// Package policy holds the single source of truth for the four systems
// compared throughout the EDM paper's evaluation (§V). The root edm
// package and internal/experiment both re-export this type, so figure
// labels, CLI flags and planner construction cannot drift apart.
package policy

import (
	"fmt"
	"strings"

	"edm/internal/migration"
)

// Policy selects the migration scheme for a run.
type Policy int

// The four systems in the paper's presentation order.
const (
	// Baseline runs no migration.
	Baseline Policy = iota
	// CMT is the conventional (Sorrento-based) migration technique.
	CMT
	// HDF is EDM's Hot-Data First policy.
	HDF
	// CDF is EDM's Cold-Data First policy.
	CDF
)

// String implements fmt.Stringer, matching the paper's figure labels.
func (p Policy) String() string {
	switch p {
	case Baseline:
		return "baseline"
	case CMT:
		return "CMT"
	case HDF:
		return "EDM-HDF"
	case CDF:
		return "EDM-CDF"
	}
	return fmt.Sprintf("Policy(%d)", int(p))
}

// Planner builds the policy's migration planner with the given
// tunables; the baseline migrates nothing and gets nil. It is the one
// policy → planner mapping: edm.Spec and the golden suite both use it.
func (p Policy) Planner(cfg migration.Config) migration.Planner {
	switch p {
	case CMT:
		return migration.NewCMT(cfg)
	case HDF:
		return migration.NewHDF(cfg)
	case CDF:
		return migration.NewCDF(cfg)
	}
	return nil
}

// MarshalText encodes the policy as its canonical CLI spelling
// (baseline, cmt, hdf, cdf), so structs holding a Policy serialize to
// readable JSON — the wire format cell specs ship to edmd workers.
func (p Policy) MarshalText() ([]byte, error) {
	if p < Baseline || p > CDF {
		return nil, fmt.Errorf("policy: cannot marshal %v", p)
	}
	return []byte(Names()[int(p)]), nil
}

// UnmarshalText decodes any spelling Parse accepts.
func (p *Policy) UnmarshalText(text []byte) error {
	v, err := Parse(string(text))
	if err != nil {
		return fmt.Errorf("policy: %w", err)
	}
	*p = v
	return nil
}

// All lists the four systems in the paper's presentation order.
func All() []Policy {
	return []Policy{Baseline, CMT, HDF, CDF}
}

// Names lists the canonical parseable spellings in presentation order
// (the CLI flag values).
func Names() []string {
	return []string{"baseline", "cmt", "hdf", "cdf"}
}

// Parse maps a user-facing name to a policy. It accepts the CLI
// spellings (baseline, cmt, hdf, cdf) and the figure labels String
// produces (CMT, EDM-HDF, EDM-CDF), case-insensitively. Unknown values
// yield an error naming every valid option.
func Parse(s string) (Policy, error) {
	switch strings.ToLower(strings.TrimSpace(s)) {
	case "baseline":
		return Baseline, nil
	case "cmt":
		return CMT, nil
	case "hdf", "edm-hdf":
		return HDF, nil
	case "cdf", "edm-cdf":
		return CDF, nil
	}
	return 0, fmt.Errorf("unknown policy %q (valid: %s)", s, strings.Join(Names(), ", "))
}
