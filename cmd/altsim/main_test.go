package main

import (
	"reflect"
	"testing"

	"repro/internal/experiments"
)

func TestParseLoads(t *testing.T) {
	got, err := parseLoads("8, 10 ,12.5")
	if err != nil {
		t.Fatal(err)
	}
	if want := []float64{8, 10, 12.5}; !reflect.DeepEqual(got, want) {
		t.Errorf("parseLoads = %v, want %v", got, want)
	}
	empty, err := parseLoads("")
	if err != nil || empty != nil {
		t.Errorf("empty: %v %v", empty, err)
	}
	if _, err := parseLoads("8,x"); err == nil {
		t.Error("bad token: want error")
	}
}

func TestPick(t *testing.T) {
	if pick(0, 11) != 11 || pick(6, 11) != 6 || pick(-1, 11) != 11 {
		t.Error("pick defaults wrong")
	}
}

func TestMustPassesValues(t *testing.T) {
	if got := must(42, nil); got != 42 {
		t.Errorf("must = %v", got)
	}
}

// TestVerifyClaims is `altsim verify` as a test: the Table 1 loads and
// protection levels, the §4.2.2 path census, and the quadrangle ordering
// (controlled <= single-path) must all hold at the CLI's default settings.
func TestVerifyClaims(t *testing.T) {
	checks, err := verifyClaims(experiments.SimParams{Seeds: 10, Warmup: 10, Horizon: 110})
	if err != nil {
		t.Fatal(err)
	}
	if len(checks) != 7 {
		t.Fatalf("%d checks, want 7", len(checks))
	}
	for _, c := range checks {
		if !c.ok {
			t.Errorf("%s: %s", c.name, c.detail)
		}
	}
}
