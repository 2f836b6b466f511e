package obs

import (
	"bytes"
	"regexp"
	"sort"
	"strconv"
	"strings"
	"testing"
)

func scrape(t *testing.T, m *Metrics) string {
	t.Helper()
	var b bytes.Buffer
	if err := m.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	return b.String()
}

func buildSampleRegistry() *Metrics {
	m := NewMetrics()
	m.SetHelp("bm_requests_total", "Requests served per endpoint.")
	m.SetHelp("bm_service_latency_ms", "Service latency in milliseconds.")
	m.Add(L("bm_requests_total", "service", "http", "endpoint", "/probe"), 7)
	m.Add(L("bm_requests_total", "service", "http", "endpoint", "/"), 2)
	m.Add(L("bm_requests_total", "service", "tcp", "endpoint", "echo"), 5)
	m.Set("bm_artificial_delay_config_ms", 50)
	m.Observe("stage_send_path_ms", 0.07)
	m.Observe("stage_send_path_ms", 3.2)
	for i := 0; i < 100; i++ {
		m.Observe(L("bm_service_latency_ms", "endpoint", "/probe"), float64(i))
	}
	return m
}

func TestPrometheusConformance(t *testing.T) {
	m := buildSampleRegistry()
	out := scrape(t, m)

	for _, want := range []string{
		"# HELP bm_requests_total Requests served per endpoint.\n",
		"# TYPE bm_requests_total counter\n",
		`bm_requests_total{endpoint="/",service="http"} 2` + "\n",
		`bm_requests_total{endpoint="/probe",service="http"} 7` + "\n",
		"# TYPE bm_artificial_delay_config_ms gauge\n",
		"bm_artificial_delay_config_ms 50\n",
		"# TYPE stage_send_path_ms summary\n",
		`stage_send_path_ms{quantile="0.5"} 0.07` + "\n",
		`stage_send_path_ms{quantile="0.99"} 3.2` + "\n",
		"stage_send_path_ms_sum 3.27\n",
		"stage_send_path_ms_count 2\n",
		"# HELP bm_service_latency_ms Service latency in milliseconds.\n",
		"# TYPE bm_service_latency_ms summary\n",
		`bm_service_latency_ms{endpoint="/probe",quantile="0.5"}`,
		`bm_service_latency_ms_count{endpoint="/probe"} 100` + "\n",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("scrape missing %q\n--- scrape ---\n%s", want, out)
		}
	}

	// Every non-comment line is `name{labels} value` with a parseable value.
	lineRE := regexp.MustCompile(`^[a-zA-Z_:][a-zA-Z0-9_:]*(\{[^{}]*\})? (\+Inf|-Inf|NaN|[0-9eE.+-]+)$`)
	for _, line := range strings.Split(strings.TrimRight(out, "\n"), "\n") {
		if strings.HasPrefix(line, "#") {
			continue
		}
		if !lineRE.MatchString(line) {
			t.Errorf("malformed exposition line: %q", line)
		}
	}

	// Families appear in sorted order.
	typeRE := regexp.MustCompile(`(?m)^# TYPE ([a-zA-Z0-9_:]+) `)
	var fams []string
	for _, match := range typeRE.FindAllStringSubmatch(out, -1) {
		fams = append(fams, match[1])
	}
	if !sort.StringsAreSorted(fams) {
		t.Errorf("families not sorted: %v", fams)
	}
}

// TestPrometheusByteStable is the satellite contract: two scrapes of the
// same registry are byte-identical (sorted series keys, deterministic
// quantile evaluation), and so are two text/JSON snapshots.
func TestPrometheusByteStable(t *testing.T) {
	m := buildSampleRegistry()
	first := scrape(t, m)
	second := scrape(t, m)
	if first != second {
		t.Fatalf("scrapes differ:\n--- first ---\n%s\n--- second ---\n%s", first, second)
	}

	var t1, t2, j1, j2 bytes.Buffer
	if err := m.WriteText(&t1); err != nil {
		t.Fatal(err)
	}
	if err := m.WriteText(&t2); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(t1.Bytes(), t2.Bytes()) {
		t.Fatal("text snapshots differ")
	}
	if err := m.WriteJSON(&j1); err != nil {
		t.Fatal(err)
	}
	if err := m.WriteJSON(&j2); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(j1.Bytes(), j2.Bytes()) {
		t.Fatal("JSON snapshots differ")
	}
}

func TestPrometheusEscaping(t *testing.T) {
	m := NewMetrics()
	m.SetHelp("weird_series", "line one\nline \\two")
	m.Add(L("weird_series", "path", `C:\tmp\"x"`+"\n"), 1)
	out := scrape(t, m)
	if !strings.Contains(out, `# HELP weird_series line one\nline \\two`+"\n") {
		t.Errorf("help not escaped:\n%s", out)
	}
	if !strings.Contains(out, `weird_series{path="C:\\tmp\\\"x\"\n"} 1`+"\n") {
		t.Errorf("label value not escaped:\n%s", out)
	}
}

func TestPrometheusSanitizesNames(t *testing.T) {
	m := NewMetrics()
	m.Add("bad.name-with chars", 3)
	m.Add(L("ok_name", "bad-label", "v"), 1)
	out := scrape(t, m)
	if !strings.Contains(out, "bad_name_with_chars 3\n") {
		t.Errorf("metric name not sanitized:\n%s", out)
	}
	if !strings.Contains(out, `ok_name{bad_label="v"} 1`+"\n") {
		t.Errorf("label name not sanitized:\n%s", out)
	}
}

func TestPrometheusEmptyAndNil(t *testing.T) {
	var buf bytes.Buffer
	if err := NewMetrics().WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	if buf.Len() != 0 {
		t.Fatalf("empty registry scrape = %q", buf.String())
	}
	var nilM *Metrics
	if err := nilM.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
}

func TestPrometheusSummaryQuantilesWithinBound(t *testing.T) {
	m := NewMetrics()
	for i := 1; i <= 10000; i++ {
		m.Observe("lat_ms", float64(i))
	}
	out := scrape(t, m)
	re := regexp.MustCompile(`lat_ms\{quantile="([0-9.]+)"\} ([0-9.eE+]+)`)
	matches := re.FindAllStringSubmatch(out, -1)
	if len(matches) != len(DefaultSketchTargets) {
		t.Fatalf("got %d quantile series, want %d:\n%s", len(matches), len(DefaultSketchTargets), out)
	}
	for _, match := range matches {
		q, _ := strconv.ParseFloat(match[1], 64)
		v, _ := strconv.ParseFloat(match[2], 64)
		// Data is 1..10000, so the true q-quantile is ~q*10000.
		if diff := v - q*10000; diff < -200 || diff > 200 {
			t.Errorf("quantile %g = %g, want within 200 of %g", q, v, q*10000)
		}
	}
}
