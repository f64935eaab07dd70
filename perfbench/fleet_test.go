package main

import (
	"strings"
	"testing"
)

// A page from a node that holds no update yet lacks tokennode_app_seq; the
// parser must report that instead of reading the series as 0.
func TestParseScrapeRejectsMissingSeries(t *testing.T) {
	var page strings.Builder
	for _, name := range requiredSeries {
		page.WriteString("# HELP x y\n" + name + " 7\n")
	}
	s, err := parseScrape(strings.NewReader(page.String()))
	if err != nil {
		t.Fatalf("complete page: %v", err)
	}
	if got := s["tokennode_app_seq"]; got != 7 {
		t.Errorf("tokennode_app_seq = %v, want 7", got)
	}
	for _, missing := range requiredSeries {
		partial := strings.Replace(page.String(), missing+" 7\n", "", 1)
		if _, err := parseScrape(strings.NewReader(partial)); err == nil || !strings.Contains(err.Error(), missing) {
			t.Errorf("page without %s: err = %v, want it named", missing, err)
		}
	}
}

func TestQuantile(t *testing.T) {
	xs := []float64{5, 1, 4, 2, 3}
	for _, c := range []struct{ q, want float64 }{{0, 1}, {0.5, 3}, {0.9, 4.6}, {1, 5}} {
		if got := quantile(append([]float64(nil), xs...), c.q); got < c.want-1e-9 || got > c.want+1e-9 {
			t.Errorf("quantile(%v) = %v, want %v", c.q, got, c.want)
		}
	}
}
