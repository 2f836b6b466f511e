package obs

import (
	"io"
	"math"
	"sort"
	"strconv"
	"strings"
)

// WritePrometheus writes the registry in the Prometheus text exposition
// format, version 0.0.4: one block per metric family with `# HELP` (when
// registered via SetHelp) and `# TYPE` comment lines, then every series
// of the family with its labels. Counters export as `counter`, gauges as
// `gauge`, and sketches as `summary` (`quantile` label per target plus
// `_sum`/`_count`).
//
// The output is part of the registry's API contract: families sort by
// name, series within a family sort by label string, and two scrapes of
// an unchanged registry are byte-identical. Family and label names are
// sanitized to the Prometheus charset; label values and help text are
// escaped per the format spec.
func (m *Metrics) WritePrometheus(w io.Writer) error {
	if m == nil {
		return nil
	}
	m.mu.Lock()
	defer m.mu.Unlock()

	type series struct {
		labels string // raw label body, "" when unlabelled
		key    string // original registry key
	}
	type family struct {
		name string
		kind string // "counter", "gauge", "summary"
		ser  []series
	}
	fams := map[string]*family{}
	collect := func(key, kind string) {
		name, labels := splitSeriesKey(key)
		name = sanitizeMetricName(name)
		id := name + " " + kind
		f := fams[id]
		if f == nil {
			f = &family{name: name, kind: kind}
			fams[id] = f
		}
		f.ser = append(f.ser, series{labels: labels, key: key})
	}
	for k := range m.counters {
		collect(k, "counter")
	}
	for k := range m.gauges {
		collect(k, "gauge")
	}
	for k := range m.sketches {
		collect(k, "summary")
	}

	ordered := make([]*family, 0, len(fams))
	for _, f := range fams {
		sort.Slice(f.ser, func(i, j int) bool { return f.ser[i].labels < f.ser[j].labels })
		ordered = append(ordered, f)
	}
	sort.Slice(ordered, func(i, j int) bool {
		if ordered[i].name != ordered[j].name {
			return ordered[i].name < ordered[j].name
		}
		return ordered[i].kind < ordered[j].kind
	})

	var b strings.Builder
	for _, f := range ordered {
		if help, ok := m.help[f.name]; ok && help != "" {
			b.WriteString("# HELP ")
			b.WriteString(f.name)
			b.WriteByte(' ')
			b.WriteString(escapeHelp(help))
			b.WriteByte('\n')
		}
		b.WriteString("# TYPE ")
		b.WriteString(f.name)
		b.WriteByte(' ')
		b.WriteString(f.kind)
		b.WriteByte('\n')
		for _, s := range f.ser {
			switch f.kind {
			case "counter":
				writeSeriesLine(&b, f.name, "", s.labels, "", strconv.FormatInt(m.counters[s.key], 10))
			case "gauge":
				writeSeriesLine(&b, f.name, "", s.labels, "", formatPromFloat(m.gauges[s.key]))
			case "summary":
				sk := m.sketches[s.key]
				for _, t := range sk.Targets() {
					q := `quantile="` + formatPromFloat(t.Quantile) + `"`
					writeSeriesLine(&b, f.name, "", s.labels, q, formatPromFloat(sk.Quantile(t.Quantile)))
				}
				writeSeriesLine(&b, f.name, "_sum", s.labels, "", formatPromFloat(sk.Sum()))
				writeSeriesLine(&b, f.name, "_count", s.labels, "", strconv.FormatUint(sk.Count(), 10))
			}
		}
	}
	_, err := io.WriteString(w, b.String())
	return err
}

// writeSeriesLine emits `name[suffix]{labels[,extra]} value\n`. labels is
// the raw label body from the registry key; extra is an
// exposition-internal label (`quantile`) appended after it.
func writeSeriesLine(b *strings.Builder, name, suffix, labels, extra, value string) {
	b.WriteString(name)
	b.WriteString(suffix)
	if labels != "" || extra != "" {
		b.WriteByte('{')
		b.WriteString(sanitizeLabelBody(labels))
		if labels != "" && extra != "" {
			b.WriteByte(',')
		}
		b.WriteString(extra)
		b.WriteByte('}')
	}
	b.WriteByte(' ')
	b.WriteString(value)
	b.WriteByte('\n')
}

// splitSeriesKey splits a registry key built by L() into the family name
// and the raw label body.
func splitSeriesKey(key string) (name, labels string) {
	if i := strings.IndexByte(key, '{'); i >= 0 && strings.HasSuffix(key, "}") {
		return key[:i], key[i+1 : len(key)-1]
	}
	return key, ""
}

// sanitizeMetricName maps a registry name onto the Prometheus metric
// charset [a-zA-Z_:][a-zA-Z0-9_:]*.
func sanitizeMetricName(name string) string {
	if name == "" {
		return "_"
	}
	ok := true
	for i := 0; i < len(name); i++ {
		if !isMetricChar(name[i], i == 0) {
			ok = false
			break
		}
	}
	if ok {
		return name
	}
	out := []byte(name)
	for i := range out {
		if !isMetricChar(out[i], i == 0) {
			out[i] = '_'
		}
	}
	return string(out)
}

func isMetricChar(c byte, first bool) bool {
	switch {
	case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c == '_', c == ':':
		return true
	case c >= '0' && c <= '9':
		return !first
	}
	return false
}

// sanitizeLabelBody escapes the label *values* inside a raw label body
// (`k="v",k2="v2"`) per the exposition format: backslash, double quote
// and newline. Label names pass through the metric-name sanitizer.
func sanitizeLabelBody(body string) string {
	if body == "" {
		return ""
	}
	var b strings.Builder
	rest := body
	first := true
	for rest != "" {
		eq := strings.Index(rest, `="`)
		if eq < 0 {
			b.WriteString(rest) // malformed; pass through
			break
		}
		name := rest[:eq]
		rest = rest[eq+2:]
		// Value runs to the closing quote; L() never embeds quotes in
		// names, so scan for `"` followed by `,` or end.
		end := len(rest)
		for i := 0; i < len(rest); i++ {
			if rest[i] == '"' && (i+1 == len(rest) || rest[i+1] == ',') {
				end = i
				break
			}
		}
		val := rest[:end]
		if end < len(rest) {
			rest = rest[end+1:]
			rest = strings.TrimPrefix(rest, ",")
		} else {
			rest = ""
		}
		if !first {
			b.WriteByte(',')
		}
		first = false
		b.WriteString(sanitizeMetricName(name))
		b.WriteString(`="`)
		b.WriteString(escapeLabelValue(val))
		b.WriteByte('"')
	}
	return b.String()
}

func escapeLabelValue(v string) string {
	if !strings.ContainsAny(v, "\\\"\n") {
		return v
	}
	var b strings.Builder
	for _, r := range v {
		switch r {
		case '\\':
			b.WriteString(`\\`)
		case '"':
			b.WriteString(`\"`)
		case '\n':
			b.WriteString(`\n`)
		default:
			b.WriteRune(r)
		}
	}
	return b.String()
}

func escapeHelp(h string) string {
	if !strings.ContainsAny(h, "\\\n") {
		return h
	}
	var b strings.Builder
	for _, r := range h {
		switch r {
		case '\\':
			b.WriteString(`\\`)
		case '\n':
			b.WriteString(`\n`)
		default:
			b.WriteRune(r)
		}
	}
	return b.String()
}

// formatPromFloat renders a float the way Prometheus expects: shortest
// round-trip representation, with explicit +Inf/-Inf/NaN spellings.
func formatPromFloat(v float64) string {
	switch {
	case math.IsInf(v, 1):
		return "+Inf"
	case math.IsInf(v, -1):
		return "-Inf"
	case math.IsNaN(v):
		return "NaN"
	}
	return strconv.FormatFloat(v, 'g', -1, 64)
}
