package main

import (
	"bytes"
	"encoding/csv"
	"encoding/xml"
	"errors"
	"fmt"
	"io"
	"math"
	"strconv"

	"repro/internal/stack"
)

// rowTolerance bounds the Formula (4)/(5) residual of a report row: each
// of the seven values involved is rounded to 4 decimals (at most 0.5e-4
// off), plus room for float error.
const rowTolerance = 7*0.5e-4 + 1e-9

// checkRows checks Formulas (4) and (5) on report rows:
// estimated = threads - (neg_llc + memory + spinning + yielding + imbalance) + pos_llc
// and base = the same without pos_llc, floored at 0 as stack.Row floors it,
// with every component non-negative.
func checkRows(rows []stack.ReportRow) error {
	if len(rows) == 0 {
		return errors.New("no stack rows")
	}
	for _, r := range rows {
		c := r.Components
		for _, v := range []float64{c.PosLLC, c.NegLLC, c.NetLLC, c.Memory, c.Spinning, c.Yielding, c.Imbalance} {
			if v < 0 {
				return fmt.Errorf("%s x%d: negative component in %+v", r.Benchmark, r.Threads, c)
			}
		}
		base := float64(r.Threads) - (c.NegLLC + c.Memory + c.Spinning + c.Yielding + c.Imbalance)
		if d := r.Estimated - (base + c.PosLLC); math.Abs(d) > rowTolerance {
			return fmt.Errorf("%s x%d: Formula (4) residual %.6f", r.Benchmark, r.Threads, d)
		}
		if d := r.Base - math.Max(base, 0); math.Abs(d) > rowTolerance {
			return fmt.Errorf("%s x%d: Formula (5) residual %.6f", r.Benchmark, r.Threads, d)
		}
	}
	return nil
}

// checkCSV checks Formulas (4) and (5) on a CSV stack report, whose base
// column is not floored.
func checkCSV(data []byte) error {
	recs, err := csv.NewReader(bytes.NewReader(data)).ReadAll()
	if err != nil {
		return err
	}
	if len(recs) < 2 {
		return errors.New("no stack rows")
	}
	for _, rec := range recs[1:] {
		if len(rec) != 12 {
			return fmt.Errorf("CSV row has %d fields, want 12", len(rec))
		}
		v := make([]float64, len(rec))
		for i := 1; i < len(rec); i++ {
			if v[i], err = strconv.ParseFloat(rec[i], 64); err != nil {
				return fmt.Errorf("CSV field %d: %v", i, err)
			}
		}
		// label, threads, estimated, actual, base, posLLC, negLLC,
		// netLLC, memory, spin, yield, imbalance
		base := v[1] - (v[6] + v[8] + v[9] + v[10] + v[11])
		if d := v[2] - (base + v[5]); math.Abs(d) > rowTolerance {
			return fmt.Errorf("%s x%s: Formula (4) residual %.6f", rec[0], rec[1], d)
		}
		if d := v[4] - base; math.Abs(d) > rowTolerance {
			return fmt.Errorf("%s x%s: Formula (5) residual %.6f", rec[0], rec[1], d)
		}
	}
	return nil
}

// checkSVG requires a well-formed XML document with an <svg> root.
func checkSVG(data []byte) error {
	dec := xml.NewDecoder(bytes.NewReader(data))
	root := ""
	for {
		tok, err := dec.Token()
		if err == io.EOF {
			break
		}
		if err != nil {
			return fmt.Errorf("SVG is not well-formed XML: %v", err)
		}
		if se, ok := tok.(xml.StartElement); ok && root == "" {
			root = se.Name.Local
		}
	}
	if root != "svg" {
		return fmt.Errorf("SVG root element is %q", root)
	}
	return nil
}
