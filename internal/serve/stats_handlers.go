package serve

import (
	"fmt"
	"math"
	"net/http"
	"strconv"
	"strings"

	"repro/internal/stats"
)

// The /v1/stats/* endpoints expose the study's statistical machinery
// for ad-hoc use: paste counts from any source, get the same tests the
// tables are built from. Inputs arrive as query parameters, outputs as
// JSON. Everything is pure computation — no admission beyond the render
// gate, nothing cached (the work is microseconds).

// queryFloat parses a required, finite float parameter.
func queryFloat(r *http.Request, name string) (float64, error) {
	raw := r.URL.Query().Get(name)
	if raw == "" {
		return 0, fmt.Errorf("missing parameter %q", name)
	}
	v, err := strconv.ParseFloat(raw, 64)
	if err != nil {
		return 0, fmt.Errorf("parameter %q: %v", name, err)
	}
	if math.IsNaN(v) || math.IsInf(v, 0) {
		return 0, fmt.Errorf("parameter %q: %q is not a finite number", name, raw)
	}
	return v, nil
}

// queryFloatDefault parses an optional float parameter.
func queryFloatDefault(r *http.Request, name string, def float64) (float64, error) {
	if r.URL.Query().Get(name) == "" {
		return def, nil
	}
	return queryFloat(r, name)
}

// chiSquareResponse is the wire form of a contingency test.
type chiSquareResponse struct {
	Test    string  `json:"test"` // "pearson" or "g"
	Rows    int     `json:"rows"`
	Cols    int     `json:"cols"`
	Stat    float64 `json:"stat"`
	DF      int     `json:"df"`
	P       float64 `json:"p"`
	CramerV float64 `json:"cramerV"`
}

// handleChiSquare: GET /v1/stats/chisquare?rows=2&cols=2&counts=10,20,30,40[&test=g]
func (s *Server) handleChiSquare(w http.ResponseWriter, r *http.Request) {
	q := r.URL.Query()
	rows, err1 := strconv.Atoi(q.Get("rows"))
	cols, err2 := strconv.Atoi(q.Get("cols"))
	if err1 != nil || err2 != nil {
		s.writeError(w, http.StatusBadRequest, "rows and cols must be integers")
		return
	}
	parts := strings.Split(q.Get("counts"), ",")
	counts := make([]float64, 0, len(parts))
	for _, p := range parts {
		v, err := strconv.ParseFloat(strings.TrimSpace(p), 64)
		if err != nil {
			s.writeError(w, http.StatusBadRequest, "counts must be a comma-separated list of numbers")
			return
		}
		counts = append(counts, v)
	}
	tab, err := stats.FromCounts(rows, cols, counts)
	if err != nil {
		s.writeError(w, http.StatusBadRequest, err.Error())
		return
	}
	test := q.Get("test")
	var res stats.ChiSquareResult
	switch test {
	case "", "pearson":
		test = "pearson"
		res, err = tab.ChiSquare()
	case "g":
		res, err = tab.GTest()
	default:
		s.writeError(w, http.StatusBadRequest, fmt.Sprintf("unknown test %q (pearson, g)", test))
		return
	}
	if err != nil {
		s.writeError(w, http.StatusBadRequest, err.Error())
		return
	}
	s.writeJSON(w, http.StatusOK, chiSquareResponse{
		Test: test, Rows: rows, Cols: cols,
		Stat: res.Stat, DF: res.DF, P: res.P, CramerV: res.CramerV,
	})
}

// ciResponse is the wire form of a proportion confidence interval.
type ciResponse struct {
	Method    string  `json:"method"`
	Successes float64 `json:"successes"`
	N         float64 `json:"n"`
	Level     float64 `json:"level"`
	Share     float64 `json:"share"`
	Lo        float64 `json:"lo"`
	Hi        float64 `json:"hi"`
}

// handleCI: GET /v1/stats/ci?successes=42&n=100[&level=0.95]
func (s *Server) handleCI(w http.ResponseWriter, r *http.Request) {
	successes, err := queryFloat(r, "successes")
	if err != nil {
		s.writeError(w, http.StatusBadRequest, err.Error())
		return
	}
	n, err := queryFloat(r, "n")
	if err != nil {
		s.writeError(w, http.StatusBadRequest, err.Error())
		return
	}
	level, err := queryFloatDefault(r, "level", 0.95)
	if err != nil {
		s.writeError(w, http.StatusBadRequest, err.Error())
		return
	}
	iv, err := stats.WilsonInterval(successes, n, level)
	if err != nil {
		s.writeError(w, http.StatusBadRequest, err.Error())
		return
	}
	s.writeJSON(w, http.StatusOK, ciResponse{
		Method: "wilson", Successes: successes, N: n, Level: level,
		Share: successes / n, Lo: iv.Lo, Hi: iv.Hi,
	})
}

// oddsRatioResponse is the wire form of a 2×2 association summary.
type oddsRatioResponse struct {
	Table     [4]float64 `json:"table"` // [a b c d]
	OddsRatio float64    `json:"oddsRatio"`
	Lo        float64    `json:"lo"`
	Hi        float64    `json:"hi"`
	FisherP   *float64   `json:"fisherP,omitempty"` // integer counts only
	Phi       *float64   `json:"phi,omitempty"`
}

// handleOddsRatio: GET /v1/stats/oddsratio?a=10&b=20&c=30&d=40
func (s *Server) handleOddsRatio(w http.ResponseWriter, r *http.Request) {
	var cells [4]float64
	for i, name := range []string{"a", "b", "c", "d"} {
		v, err := queryFloat(r, name)
		if err != nil {
			s.writeError(w, http.StatusBadRequest, err.Error())
			return
		}
		cells[i] = v
	}
	tab := stats.Table2x2{A: cells[0], B: cells[1], C: cells[2], D: cells[3]}
	or, lo, hi, err := tab.OddsRatio()
	if err != nil {
		s.writeError(w, http.StatusBadRequest, err.Error())
		return
	}
	out := oddsRatioResponse{Table: cells, OddsRatio: or, Lo: lo, Hi: hi}
	// Fisher and phi are best-effort extras: Fisher needs integer
	// counts, phi non-degenerate margins. Their absence is not an error.
	if p, err := tab.FisherExact(); err == nil {
		out.FisherP = &p
	}
	if phi, err := tab.Phi(); err == nil {
		out.Phi = &phi
	}
	s.writeJSON(w, http.StatusOK, out)
}
