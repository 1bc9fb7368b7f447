package telemetry

import (
	"io"
	"strconv"
)

// Exporters serialize a Recording. Output is byte-stable: fields are written
// in a fixed order with strconv (no map iteration, no float formatting), so
// the same recording always produces the same bytes — the property the
// telemetry golden test and `make telemetry-verify` pin. Both exporters walk
// the recording once with its tick cursor, build each line in one reused
// buffer, and hand it to w in a single Write per line; wrap a file in a
// bufio.Writer when lines are short.

// WriteJSONL writes the recording as JSON Lines: one header object
//
//	{"intervalPs":N,"samples":M,"dropped":D,"probes":["a","b",...]}
//
// followed by one object per tick
//
//	{"tPs":T,"v":[v0,v1,...]}
//
// where v is parallel to the header's probes array. Timestamps and the
// interval are in picoseconds, the simulator's native resolution.
func WriteJSONL(w io.Writer, rec *Recording) error {
	line := make([]byte, 0, 64+24*len(rec.Names))
	line = append(line, `{"intervalPs":`...)
	line = strconv.AppendInt(line, int64(rec.Interval), 10)
	line = append(line, `,"samples":`...)
	line = strconv.AppendInt(line, int64(len(rec.Times)), 10)
	line = append(line, `,"dropped":`...)
	line = strconv.AppendInt(line, int64(rec.Dropped), 10)
	line = append(line, `,"probes":[`...)
	for j, name := range rec.Names {
		if j > 0 {
			line = append(line, ',')
		}
		line = strconv.AppendQuote(line, name)
	}
	line = append(line, "]}\n"...)
	if _, err := w.Write(line); err != nil {
		return err
	}

	for c := rec.Ticks(); c.Next(); {
		line = append(line[:0], `{"tPs":`...)
		line = strconv.AppendInt(line, int64(c.Time()), 10)
		line = append(line, `,"v":[`...)
		for j, v := range c.Row() {
			if j > 0 {
				line = append(line, ',')
			}
			line = strconv.AppendInt(line, v, 10)
		}
		line = append(line, "]}\n"...)
		if _, err := w.Write(line); err != nil {
			return err
		}
	}
	return nil
}

// WriteCSV writes the recording in wide form: a header row
// "t_ps,<probe>,<probe>,..." and one row per tick. Probe names are quoted
// only when they contain a comma or quote (they normally do not: the wiring
// layer uses '/'-separated names).
func WriteCSV(w io.Writer, rec *Recording) error {
	line := make([]byte, 0, 64+24*len(rec.Names))
	line = append(line, "t_ps"...)
	for _, name := range rec.Names {
		line = append(line, ',')
		line = append(line, csvEscape(name)...)
	}
	line = append(line, '\n')
	if _, err := w.Write(line); err != nil {
		return err
	}

	for c := rec.Ticks(); c.Next(); {
		line = strconv.AppendInt(line[:0], int64(c.Time()), 10)
		for _, v := range c.Row() {
			line = append(line, ',')
			line = strconv.AppendInt(line, v, 10)
		}
		line = append(line, '\n')
		if _, err := w.Write(line); err != nil {
			return err
		}
	}
	return nil
}

// csvEscape quotes a field if it contains a comma, quote, or newline.
func csvEscape(s string) string {
	needs := false
	for i := 0; i < len(s); i++ {
		if c := s[i]; c == ',' || c == '"' || c == '\n' || c == '\r' {
			needs = true
			break
		}
	}
	if !needs {
		return s
	}
	out := make([]byte, 0, len(s)+2)
	out = append(out, '"')
	for i := 0; i < len(s); i++ {
		if s[i] == '"' {
			out = append(out, '"')
		}
		out = append(out, s[i])
	}
	out = append(out, '"')
	return string(out)
}
