package main

import (
	"testing"
	"time"
)

func TestModuleOf(t *testing.T) {
	cases := map[string]string{
		"crowdtopk/internal/crowd.(*Engine).Draw":         "crowd",
		"crowdtopk/internal/obs/explain.(*Collector).Add": "obs",
		"crowdtopk.Query":                      "session",
		"crowdtopk.(*Session).StartTopK.func1": "session",
		"main.(*oracle).Preference":            "bench",
		"crowdtopk/internal/sched.(*Pool).run": "sched",
	}
	for fn, want := range cases {
		if got, ok := moduleOf(fn); !ok || got != want {
			t.Errorf("moduleOf(%q) = %q, %v; want %q", fn, got, ok, want)
		}
	}
	for _, fn := range []string{"runtime.mallocgc", "net/http.(*conn).serve", "math.Sqrt"} {
		if m, ok := moduleOf(fn); ok {
			t.Errorf("moduleOf(%q) = %q, want no module", fn, m)
		}
	}
}

var spinSink float64

// spin burns CPU in this package. The accumulator is local so the race
// detector, which instruments shared memory, leaves the loop alone.
//
//go:noinline
func spin(d time.Duration) {
	acc := 0.0
	for end := time.Now().Add(d); time.Now().Before(end); {
		for i := 0; i < 1_000_000; i++ {
			acc += float64(i) * 1.0000001
		}
	}
	spinSink = acc
}

// TestCPUProfileAttributesToModules profiles a busy loop in this package
// and expects the decoder to charge most samples to "bench".
func TestCPUProfileAttributesToModules(t *testing.T) {
	p, err := startCPUProfile()
	if err != nil {
		t.Skip(err)
	}
	spin(400 * time.Millisecond)
	shares, err := p.stop()
	if err != nil {
		t.Fatal(err)
	}
	if shares["bench"] < 0.5 {
		t.Errorf("busy loop charged %.2f to bench, want most samples: %v", shares["bench"], shares)
	}
	sum := 0.0
	for _, s := range shares {
		sum += s
	}
	if sum < 0.999 || sum > 1.001 {
		t.Errorf("shares sum to %g", sum)
	}
}
