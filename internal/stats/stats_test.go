package stats

import "testing"

func sampleOf(vs ...float64) *Sample {
	var s Sample
	for _, v := range vs {
		s.Add(v)
	}
	return &s
}

func TestEmptySample(t *testing.T) {
	var s Sample
	if s.Mean() != 0 || s.Max() != 0 || s.Percentile(0) != 0 || s.Percentile(50) != 0 {
		t.Error("empty sample should report zeros")
	}
	if s.N() != 0 {
		t.Error("empty sample N != 0")
	}
}

func TestMeanMinMax(t *testing.T) {
	s := sampleOf(4, 2, 10, 8)
	if s.Mean() != 6 {
		t.Errorf("mean = %v", s.Mean())
	}
	if s.Percentile(0) != 2 || s.Max() != 10 {
		t.Errorf("min/max = %v/%v", s.Percentile(0), s.Max())
	}
	if s.N() != 4 {
		t.Errorf("n = %d", s.N())
	}
}

func TestAddInt(t *testing.T) {
	var s Sample
	s.AddInt(3)
	s.AddInt(5)
	if s.Mean() != 4 {
		t.Errorf("mean = %v", s.Mean())
	}
}

func TestPercentile(t *testing.T) {
	s := sampleOf(1, 2, 3, 4, 5, 6, 7, 8, 9, 10)
	tests := []struct {
		p    float64
		want float64
	}{
		{0, 1}, {10, 1}, {50, 5}, {90, 9}, {100, 10},
	}
	for _, tt := range tests {
		if got := s.Percentile(tt.p); got != tt.want {
			t.Errorf("P%v = %v, want %v", tt.p, got, tt.want)
		}
	}
}

func TestPercentileCacheInvalidatedByAdd(t *testing.T) {
	s := sampleOf(5, 1, 3)
	if got := s.Percentile(100); got != 5 {
		t.Errorf("P100 = %v, want 5", got)
	}
	s.Add(9) // must invalidate the sorted cache
	if got := s.Percentile(100); got != 9 {
		t.Errorf("P100 after Add = %v, want 9", got)
	}
	if got := s.Percentile(0); got != 1 {
		t.Errorf("P0 after Add = %v, want 1", got)
	}
	s.Merge(sampleOf(0.5))
	if got := s.Percentile(0); got != 0.5 {
		t.Errorf("P0 after Merge = %v, want 0.5", got)
	}
}

func TestMerge(t *testing.T) {
	s := sampleOf(1, 2)
	s.Merge(sampleOf(3, 4))
	s.Merge(nil)
	s.Merge(&Sample{})
	if s.N() != 4 || s.Mean() != 2.5 {
		t.Errorf("after merge: n=%d mean=%v", s.N(), s.Mean())
	}
}
