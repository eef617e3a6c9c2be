package fault

import "testing"

// FuzzParseSpec feeds arbitrary strings to the -chaos flag's parser. It
// must never panic, and a spec it accepts must validate again, with
// every probability in [0, 1], both sums at most 1 and no negative
// delay.
func FuzzParseSpec(f *testing.F) {
	f.Add("seed=1,panic=0.05,error=0.05,latency=0.1,delay=5ms,stages=a|b")
	f.Add("seed=7,netdrop=0.1,netdup=0.05,netdelay=0.2,netlag=20ms,netpart=0.02")
	f.Add("panic=NaN")
	f.Fuzz(func(t *testing.T, in string) {
		s, err := ParseSpec(in)
		if err != nil {
			return
		}
		if err := s.Validate(); err != nil {
			t.Fatalf("accepted spec %+v fails validation: %v", s, err)
		}
		for _, p := range []float64{
			s.PanicProb, s.ErrorProb, s.LatencyProb,
			s.NetDropProb, s.NetDupProb, s.NetDelayProb, s.NetPartitionProb,
		} {
			if !(p >= 0 && p <= 1) {
				t.Fatalf("accepted spec %+v has probability %g outside [0, 1]", s, p)
			}
		}
		if !(s.PanicProb+s.ErrorProb+s.LatencyProb <= 1) || !(s.NetDropProb+s.NetDupProb+s.NetDelayProb <= 1) {
			t.Fatalf("accepted spec %+v has a probability sum above 1", s)
		}
		if s.Latency < 0 || s.NetDelay < 0 {
			t.Fatalf("accepted spec %+v has a negative delay", s)
		}
	})
}
