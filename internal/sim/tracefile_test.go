package sim

import (
	"bufio"
	"bytes"
	"encoding/gob"
	"errors"
	"math"
	"strings"
	"testing"

	"repro/internal/traffic"
)

// encodeV1 writes the legacy v1 layout (magic + payload, no version field),
// byte-identical to what the previous Encode produced.
func encodeV1(t *testing.T, tr *Trace) []byte {
	t.Helper()
	var buf bytes.Buffer
	bw := bufio.NewWriter(&buf)
	enc := gob.NewEncoder(bw)
	if err := enc.Encode(traceFileMagicV1); err != nil {
		t.Fatal(err)
	}
	if err := enc.Encode(tr); err != nil {
		t.Fatal(err)
	}
	if err := bw.Flush(); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func TestReadTraceV1BackCompat(t *testing.T) {
	m := traffic.Uniform(3, 4)
	orig := GenerateTrace(m, 30, 5)
	back, err := ReadTrace(bytes.NewReader(encodeV1(t, orig)))
	if err != nil {
		t.Fatalf("reading v1 trace: %v", err)
	}
	if len(back.Calls) != len(orig.Calls) || back.Horizon != orig.Horizon || back.Seed != orig.Seed {
		t.Fatalf("v1 round trip changed header: %+v", back)
	}
	for i := range orig.Calls {
		if back.Calls[i] != orig.Calls[i] {
			t.Fatalf("v1 call %d changed", i)
		}
	}
}

func TestReadTraceRejectsNewerVersion(t *testing.T) {
	m := traffic.Uniform(3, 4)
	orig := GenerateTrace(m, 30, 5)
	var buf bytes.Buffer
	bw := bufio.NewWriter(&buf)
	enc := gob.NewEncoder(bw)
	if err := enc.Encode(traceFileMagic); err != nil {
		t.Fatal(err)
	}
	if err := enc.Encode(traceFileVersion + 1); err != nil {
		t.Fatal(err)
	}
	if err := enc.Encode(orig); err != nil {
		t.Fatal(err)
	}
	if err := bw.Flush(); err != nil {
		t.Fatal(err)
	}
	_, err := ReadTrace(&buf)
	if err == nil {
		t.Fatal("future version: want error")
	}
	if !strings.Contains(err.Error(), "version") {
		t.Fatalf("error %q does not mention the version", err)
	}
}

func TestEncodeWritesV2(t *testing.T) {
	m := traffic.Uniform(3, 4)
	orig := GenerateTrace(m, 30, 5)
	var buf bytes.Buffer
	if err := orig.Encode(&buf); err != nil {
		t.Fatal(err)
	}
	dec := gob.NewDecoder(bytes.NewReader(buf.Bytes()))
	var magic string
	if err := dec.Decode(&magic); err != nil {
		t.Fatal(err)
	}
	if magic != traceFileMagic {
		t.Fatalf("magic %q, want %q", magic, traceFileMagic)
	}
	var version int
	if err := dec.Decode(&version); err != nil {
		t.Fatal(err)
	}
	if version != traceFileVersion {
		t.Fatalf("version %d, want %d", version, traceFileVersion)
	}
}

// encodeRaw writes the v2 layout for an arbitrary (possibly invalid)
// trace, bypassing nothing: Encode does not validate.
func encodeRaw(t *testing.T, tr *Trace) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := tr.Encode(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func TestReadTraceRejectsNonFinite(t *testing.T) {
	nan, inf := math.NaN(), math.Inf(1)
	call := func(arrival, holding float64) []Call {
		return []Call{{ID: 0, Origin: 0, Dest: 1, Arrival: arrival, Holding: holding}}
	}
	for _, tc := range []struct {
		name string
		tr   *Trace
	}{
		{"nan horizon", &Trace{Horizon: nan, Calls: call(1, 1)}},
		{"inf horizon", &Trace{Horizon: inf, Calls: call(1, 1)}},
		{"nan arrival", &Trace{Horizon: 10, Calls: call(nan, 1)}},
		{"nan holding", &Trace{Horizon: 10, Calls: call(1, nan)}},
		{"inf holding", &Trace{Horizon: 10, Calls: call(1, inf)}},
		{"negative node", &Trace{Horizon: 10, Calls: []Call{{ID: 0, Origin: -1, Dest: 1, Arrival: 1, Holding: 1}}}},
		{"nan after valid", &Trace{Horizon: 10, Calls: append(call(1, 1),
			Call{ID: 1, Origin: 0, Dest: 1, Arrival: nan, Holding: 1})}},
	} {
		_, err := ReadTrace(bytes.NewReader(encodeRaw(t, tc.tr)))
		if !errors.Is(err, ErrMalformedTrace) {
			t.Errorf("%s: error %v, want ErrMalformedTrace", tc.name, err)
		}
	}
}

// FuzzReadTrace feeds arbitrary bytes to ReadTrace. It must never panic,
// and whatever it accepts must satisfy the invariants the simulator relies
// on and survive an Encode/ReadTrace round trip unchanged. The checked-in
// corpus (testdata/fuzz/FuzzReadTrace) holds v1 and v2 files, valid and
// malformed.
func FuzzReadTrace(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		tr, err := ReadTrace(bytes.NewReader(data))
		if err != nil {
			return
		}
		if !(tr.Horizon > 0) || math.IsInf(tr.Horizon, 0) {
			t.Fatalf("accepted horizon %v", tr.Horizon)
		}
		prev := 0.0
		for i, c := range tr.Calls {
			if c.ID != i || !(c.Arrival >= prev && c.Arrival < tr.Horizon) ||
				!(c.Holding > 0) || math.IsInf(c.Holding, 0) || c.Origin < 0 || c.Dest < 0 || c.Origin == c.Dest {
				t.Fatalf("accepted call %d: %+v (horizon %v)", i, c, tr.Horizon)
			}
			prev = c.Arrival
		}
		var buf bytes.Buffer
		if err := tr.Encode(&buf); err != nil {
			t.Fatal(err)
		}
		back, err := ReadTrace(&buf)
		if err != nil {
			t.Fatalf("re-reading an accepted trace: %v", err)
		}
		if back.Horizon != tr.Horizon || back.Seed != tr.Seed || len(back.Calls) != len(tr.Calls) {
			t.Fatalf("round trip changed the header: %+v vs %+v", back, tr)
		}
		for i := range tr.Calls {
			if back.Calls[i] != tr.Calls[i] {
				t.Fatalf("round trip changed call %d", i)
			}
		}
	})
}
