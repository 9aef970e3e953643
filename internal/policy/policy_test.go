package policy

import (
	"encoding/json"
	"strings"
	"testing"

	"edm/internal/migration"
)

func TestStringsMatchFigureLabels(t *testing.T) {
	want := map[Policy]string{
		Baseline: "baseline",
		CMT:      "CMT",
		HDF:      "EDM-HDF",
		CDF:      "EDM-CDF",
	}
	for p, s := range want {
		if p.String() != s {
			t.Fatalf("%d.String() = %q, want %q", int(p), p.String(), s)
		}
	}
	if got := Policy(99).String(); got != "Policy(99)" {
		t.Fatalf("out-of-range String: %q", got)
	}
}

func TestAllOrder(t *testing.T) {
	all := All()
	if len(all) != 4 || all[0] != Baseline || all[3] != CDF {
		t.Fatalf("All() = %v", all)
	}
}

func TestParse(t *testing.T) {
	cases := []struct {
		in      string
		want    Policy
		wantErr bool
	}{
		{"baseline", Baseline, false},
		{"cmt", CMT, false},
		{"hdf", HDF, false},
		{"cdf", CDF, false},
		{"CMT", CMT, false},
		{"EDM-HDF", HDF, false},
		{"edm-cdf", CDF, false},
		{" hdf ", HDF, false},
		{"", 0, true},
		{"edm", 0, true},
		{"never", 0, true},
	}
	for _, c := range cases {
		got, err := Parse(c.in)
		if c.wantErr {
			if err == nil {
				t.Fatalf("Parse(%q): expected error", c.in)
			}
			if !strings.Contains(err.Error(), "baseline, cmt, hdf, cdf") {
				t.Fatalf("Parse(%q) error should list valid options: %v", c.in, err)
			}
			continue
		}
		if err != nil {
			t.Fatalf("Parse(%q): %v", c.in, err)
		}
		if got != c.want {
			t.Fatalf("Parse(%q) = %v, want %v", c.in, got, c.want)
		}
	}
}

func TestParseRoundTripsLabels(t *testing.T) {
	for _, p := range All() {
		got, err := Parse(p.String())
		if err != nil || got != p {
			t.Fatalf("Parse(%q) = %v, %v", p.String(), got, err)
		}
	}
}

func TestTextMarshalRoundTrip(t *testing.T) {
	for _, p := range All() {
		b, err := p.MarshalText()
		if err != nil {
			t.Fatalf("%v.MarshalText: %v", p, err)
		}
		var got Policy
		if err := got.UnmarshalText(b); err != nil {
			t.Fatalf("UnmarshalText(%q): %v", b, err)
		}
		if got != p {
			t.Fatalf("round trip %v → %q → %v", p, b, got)
		}
	}
	if _, err := Policy(99).MarshalText(); err == nil {
		t.Fatal("MarshalText on invalid policy should error")
	}
	var p Policy
	if err := p.UnmarshalText([]byte("nope")); err == nil {
		t.Fatal("UnmarshalText on unknown name should error")
	}
}

func TestJSONEncodesByName(t *testing.T) {
	b, err := json.Marshal(HDF)
	if err != nil {
		t.Fatal(err)
	}
	if string(b) != `"hdf"` {
		t.Fatalf("json.Marshal(HDF) = %s, want \"hdf\"", b)
	}
	var got Policy
	if err := json.Unmarshal([]byte(`"EDM-CDF"`), &got); err != nil || got != CDF {
		t.Fatalf("json.Unmarshal(\"EDM-CDF\") = %v, %v", got, err)
	}
}

func TestPlanner(t *testing.T) {
	cfg := migration.DefaultConfig()
	cfg.Lambda = 0.42
	for _, c := range []struct {
		p      Policy
		name   string
		lambda func(migration.Planner) float64
	}{
		{CMT, "CMT", func(pl migration.Planner) float64 { return pl.(*migration.CMT).Cfg.Lambda }},
		{HDF, "EDM-HDF", func(pl migration.Planner) float64 { return pl.(*migration.HDF).Cfg.Lambda }},
		{CDF, "EDM-CDF", func(pl migration.Planner) float64 { return pl.(*migration.CDF).Cfg.Lambda }},
	} {
		pl := c.p.Planner(cfg)
		if pl == nil || pl.Name() != c.name {
			t.Fatalf("%v.Planner() = %v, want %s", c.p, pl, c.name)
		}
		if l := c.lambda(pl); l != 0.42 {
			t.Fatalf("%v planner λ = %v, want 0.42", c.p, l)
		}
	}
	if pl := Baseline.Planner(cfg); pl != nil {
		t.Fatalf("baseline planner = %v, want nil", pl)
	}
}
