package serve

import (
	"math"
	"reflect"
	"testing"
)

func TestTraceKindRoundTrip(t *testing.T) {
	for _, k := range TraceKinds() {
		got, err := ParseTraceKind(k.String())
		if err != nil || got != k {
			t.Errorf("ParseTraceKind(%q) = %v, %v", k.String(), got, err)
		}
	}
	if _, err := ParseTraceKind("uniform"); err == nil {
		t.Error("unknown kind should error")
	}
}

func TestTraceValidates(t *testing.T) {
	bad := []TraceConfig{
		{Kind: Poisson, Rate: 0, Requests: 10},
		{Kind: Poisson, Rate: -1, Requests: 10},
		{Kind: Poisson, Rate: 1, Requests: 0},
		{Kind: Bursty, Rate: 1, Requests: 10, BurstFactor: 0.5},
		{Kind: Diurnal, Rate: 1, Requests: 10, Swing: 1.5},
		{Kind: TraceKind(99), Rate: 1, Requests: 10},
	}
	for _, cfg := range bad {
		if _, err := NewTrace(cfg); err == nil {
			t.Errorf("config %+v should fail", cfg)
		}
	}
	// A non-finite rate gives non-finite arrivals, which a serving run
	// never drains; the stream constructor itself must refuse it.
	for _, rate := range []float64{math.NaN(), math.Inf(1)} {
		if _, err := NewStream(TraceConfig{Kind: Poisson, Rate: rate, Requests: 4}); err == nil {
			t.Errorf("NewStream accepted rate %g", rate)
		}
	}
}

func TestTraceDeterministicAndOrdered(t *testing.T) {
	for _, kind := range TraceKinds() {
		cfg := TraceConfig{Kind: kind, Rate: 2, Requests: 200, Seed: 42}
		a, err := NewTrace(cfg)
		if err != nil {
			t.Fatalf("%v: %v", kind, err)
		}
		b, _ := NewTrace(cfg)
		if !reflect.DeepEqual(a, b) {
			t.Errorf("%v: identical seed produced different traces", kind)
		}
		c, _ := NewTrace(TraceConfig{Kind: kind, Rate: 2, Requests: 200, Seed: 43})
		if reflect.DeepEqual(a.Requests, c.Requests) {
			t.Errorf("%v: different seeds produced identical traces", kind)
		}
		last := 0.0
		for i, r := range a.Requests {
			if r.Arrival < last {
				t.Fatalf("%v: arrivals out of order at %d", kind, i)
			}
			last = r.Arrival
			if r.Prompt < 1 || r.Output < 1 || r.ID != i {
				t.Fatalf("%v: malformed request %+v", kind, r)
			}
		}
	}
}

// TestTraceMeanRate: the stationary arrival processes must realize
// their configured long-run mean rate within sampling error; the surge
// processes (Flashcrowd, Retrystorm) treat Rate as the calm baseline,
// so their realized rate lands strictly above it but below the surge
// envelope.
func TestTraceMeanRate(t *testing.T) {
	for _, kind := range TraceKinds() {
		tr, err := NewTrace(TraceConfig{Kind: kind, Rate: 5, Requests: 4000, Seed: 7})
		if err != nil {
			t.Fatal(err)
		}
		r := tr.OfferedRate()
		switch kind {
		case Flashcrowd, Retrystorm:
			if r <= 5 || r >= 5*4 {
				t.Errorf("%v: offered rate %.2f outside surge envelope (5, 20)", kind, r)
			}
		default:
			if math.Abs(r-5)/5 > 0.25 {
				t.Errorf("%v: offered rate %.2f, configured 5", kind, r)
			}
		}
	}
}

// TestBurstyIsBurstier: the squared coefficient of variation of bursty
// inter-arrivals must exceed the Poisson baseline (~1).
func TestBurstyIsBurstier(t *testing.T) {
	cv2 := func(kind TraceKind) float64 {
		tr, err := NewTrace(TraceConfig{Kind: kind, Rate: 4, Requests: 4000, Seed: 11})
		if err != nil {
			t.Fatal(err)
		}
		var gaps []float64
		for i := 1; i < len(tr.Requests); i++ {
			gaps = append(gaps, tr.Requests[i].Arrival-tr.Requests[i-1].Arrival)
		}
		var mean float64
		for _, g := range gaps {
			mean += g
		}
		mean /= float64(len(gaps))
		var v float64
		for _, g := range gaps {
			v += (g - mean) * (g - mean)
		}
		v /= float64(len(gaps))
		return v / (mean * mean)
	}
	pois, burst := cv2(Poisson), cv2(Bursty)
	if burst < pois*1.5 {
		t.Errorf("bursty CV² %.2f not clearly above poisson %.2f", burst, pois)
	}
}

// TestDiurnalRateVaries: arrivals must be denser at the sinusoid peak
// than in the trough.
func TestDiurnalRateVaries(t *testing.T) {
	tr, err := NewTrace(TraceConfig{Kind: Diurnal, Rate: 10, Requests: 6000, Seed: 5, Period: 100, Swing: 0.9})
	if err != nil {
		t.Fatal(err)
	}
	// Peak quarter of the cycle is centered on t=25, trough on t=75.
	var peak, trough int
	for _, r := range tr.Requests {
		phase := math.Mod(r.Arrival, 100)
		switch {
		case phase >= 12.5 && phase < 37.5:
			peak++
		case phase >= 62.5 && phase < 87.5:
			trough++
		}
	}
	if peak < trough*2 {
		t.Errorf("diurnal peak %d arrivals vs trough %d: no visible cycle", peak, trough)
	}
}

func TestLengthProfilesDiffer(t *testing.T) {
	chat, _ := NewTrace(TraceConfig{Kind: Poisson, Rate: 1, Requests: 500, Seed: 1})
	rag, _ := NewTrace(TraceConfig{Kind: Poisson, Rate: 1, Requests: 500, Seed: 1, Lengths: RAGLengths()})
	cp, _ := chat.TotalTokens()
	rp, _ := rag.TotalTokens()
	if rp <= cp*2 {
		t.Errorf("rag prompts (%d tokens) should dwarf chat prompts (%d tokens)", rp, cp)
	}
	if chat.Lengths != "chat" || rag.Lengths != "rag" {
		t.Errorf("profile names %q %q", chat.Lengths, rag.Lengths)
	}
}

func TestParseLengthProfile(t *testing.T) {
	for _, s := range []string{"chat", "rag"} {
		p, err := ParseLengthProfile(s)
		if err != nil || p.Name != s {
			t.Errorf("ParseLengthProfile(%q) = %+v, %v", s, p, err)
		}
	}
	if _, err := ParseLengthProfile("code"); err == nil {
		t.Error("unknown profile should error")
	}
}

// TestKindSpecificKnobsScoped: another kind's knob settings must not
// invalidate a config (BurstFactor is bursty-only, Swing diurnal-only).
func TestKindSpecificKnobsScoped(t *testing.T) {
	if _, err := NewTrace(TraceConfig{Kind: Poisson, Rate: 1, Requests: 5, BurstFactor: 0.5, Swing: -2}); err != nil {
		t.Errorf("poisson config rejected by bursty/diurnal knobs: %v", err)
	}
	if _, err := NewTrace(TraceConfig{Kind: Diurnal, Rate: 1, Requests: 5, Period: -3}); err == nil {
		t.Error("negative diurnal period should fail")
	}
}
