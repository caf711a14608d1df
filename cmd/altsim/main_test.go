package main

import (
	"bytes"
	"errors"
	"os"
	"os/exec"
	"reflect"
	"strings"
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

// TestMetroRejectsBadSizes runs the altsim main in a child process with
// metro sizes netmodel.Metro cannot build: each must end in a one-line
// usage error and exit status 2, not a panic and its goroutine dump.
func TestMetroRejectsBadSizes(t *testing.T) {
	if args := os.Getenv("ALTSIM_TEST_ARGS"); args != "" {
		os.Args = append([]string{"altsim"}, strings.Fields(args)...)
		main()
		os.Exit(0)
	}
	for _, args := range []string{
		"metro -pops 2 -popsize 2",
		"metro -pops 0",
		"metro -popsize -3",
	} {
		cmd := exec.Command(os.Args[0], "-test.run=^TestMetroRejectsBadSizes$")
		cmd.Env = append(os.Environ(), "ALTSIM_TEST_ARGS="+args)
		var stderr bytes.Buffer
		cmd.Stderr = &stderr
		err := cmd.Run()
		var exit *exec.ExitError
		if !errors.As(err, &exit) || exit.ExitCode() != 2 {
			t.Errorf("%s: exit %v, want status 2", args, err)
		}
		msg := stderr.String()
		if strings.Contains(msg, "goroutine") || strings.Count(msg, "\n") != 1 {
			t.Errorf("%s: stderr %q, want one usage line and no goroutine dump", args, msg)
		}
	}
}
