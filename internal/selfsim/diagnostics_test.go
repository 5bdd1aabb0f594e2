package selfsim

import (
	"math"
	"strings"
	"testing"
)

func TestDiagnosticsAgreeWithEstimators(t *testing.T) {
	x := genFGN(t, 0.8, 1<<14, 40)

	rsd, err := RSData(x)
	if err != nil {
		t.Fatal(err)
	}
	rs, err := RS(x)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(rsd.H-rs) > 1e-9 {
		t.Fatalf("RSData H %v != RS %v", rsd.H, rs)
	}

	vtd, err := VarianceTimeData(x)
	if err != nil {
		t.Fatal(err)
	}
	vt, err := VarianceTime(x)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(vtd.H-vt) > 1e-9 {
		t.Fatalf("VarianceTimeData H %v != VarianceTime %v", vtd.H, vt)
	}

	pd, err := PeriodogramData(x)
	if err != nil {
		t.Fatal(err)
	}
	per, err := Periodogram(x)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(pd.H-per) > 1e-9 {
		t.Fatalf("PeriodogramData H %v != Periodogram %v", pd.H, per)
	}
}

func TestDiagnosticShapes(t *testing.T) {
	x := genFGN(t, 0.75, 4096, 41)
	for _, tc := range []struct {
		name string
		data func([]float64) (FitData, error)
		kind string
		minR float64
	}{
		{"RS", RSData, "pox", 0.5},
		{"VT", VarianceTimeData, "variance-time", 0.5},
		// Periodogram ordinates carry χ²₂ noise around the spectral
		// density, so the point-wise fit correlation is inherently weak.
		{"Per", PeriodogramData, "periodogram", 0.15},
	} {
		d, err := tc.data(x)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if d.Kind != tc.kind {
			t.Fatalf("%s: kind %q", tc.name, d.Kind)
		}
		if len(d.X) < 5 || len(d.X) != len(d.Y) {
			t.Fatalf("%s: %d/%d points", tc.name, len(d.X), len(d.Y))
		}
		if math.Abs(d.R) < tc.minR {
			t.Fatalf("%s: fit correlation %v too weak on clean fGn", tc.name, d.R)
		}
	}
}

func TestDiagnosticSVG(t *testing.T) {
	x := genFGN(t, 0.8, 4096, 42)
	d, err := VarianceTimeData(x)
	if err != nil {
		t.Fatal(err)
	}
	svg, err := d.SVG("variance-time of test series")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(svg, "<svg") || !strings.Contains(svg, "polyline") {
		t.Fatal("diagnostic SVG missing scatter or fit line")
	}
	if !strings.Contains(svg, "H = 0.") {
		t.Fatal("missing H annotation")
	}
}

func TestDiagnosticsShortSeries(t *testing.T) {
	x := make([]float64, MinSeriesLen-1)
	if _, err := RSData(x); err == nil {
		t.Fatal("short series accepted")
	}
	if _, err := VarianceTimeData(x); err == nil {
		t.Fatal("short series accepted")
	}
	if _, err := PeriodogramData(x); err == nil {
		t.Fatal("short series accepted")
	}
	var empty FitData
	if _, err := empty.SVG("x"); err == nil {
		t.Fatal("empty diagnostic rendered")
	}
}
