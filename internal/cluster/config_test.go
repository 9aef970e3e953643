package cluster

import (
	"strings"
	"testing"
)

func TestParseMigrationMode(t *testing.T) {
	// The empty string is not a mode: callers treat an unset flag or
	// field as "keep the policy's default" before parsing.
	cases := []struct {
		in      string
		want    MigrationMode
		wantErr bool
	}{
		{"", 0, true},
		{"never", MigrateNever, false},
		{"midpoint", MigrateMidpoint, false},
		{"periodic", MigratePeriodic, false},
		{"sometimes", 0, true},
		{"Midpoint", 0, true},
	}
	for _, c := range cases {
		got, err := ParseMigrationMode(c.in)
		if c.wantErr {
			if err == nil {
				t.Errorf("ParseMigrationMode(%q): want error, got %v", c.in, got)
			} else if !strings.Contains(err.Error(), "valid: never, midpoint, periodic") {
				t.Errorf("ParseMigrationMode(%q) error %q should list valid modes", c.in, err)
			}
			continue
		}
		if err != nil {
			t.Errorf("ParseMigrationMode(%q): %v", c.in, err)
		} else if got != c.want {
			t.Errorf("ParseMigrationMode(%q) = %v, want %v", c.in, got, c.want)
		}
	}
}
