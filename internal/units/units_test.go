package units

import (
	"math"
	"testing"
)

func TestTemperatureConversions(t *testing.T) {
	if c := AmbientK - ZeroCelsiusK; math.Abs(c-45) > 1e-9 {
		t.Errorf("ambient constant = %g C, want 45 C", c)
	}
}

func TestConstantsPlausible(t *testing.T) {
	// Copper volumetric heat capacity ~3.45 MJ/(m^3 K).
	if CvCopper < 3.3e6 || CvCopper > 3.6e6 {
		t.Errorf("CvCopper = %g", CvCopper)
	}
	if Eps0 < 8.8e-12 || Eps0 > 8.9e-12 {
		t.Errorf("Eps0 = %g", Eps0)
	}
	if RhoCopper < 1.6e-8 || RhoCopper > 3e-8 {
		t.Errorf("RhoCopper = %g", RhoCopper)
	}
}
