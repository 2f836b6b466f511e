package obs

import (
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
)

func get(t *testing.T, url string) (*http.Response, string) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	return resp, string(body)
}

func TestOpsHandlerEndpoints(t *testing.T) {
	m := NewMetrics()
	m.Add(L("bm_requests_total", "service", "http", "endpoint", "/probe"), 3)
	m.ObserveDur(L("bm_service_latency_ms", "endpoint", "/probe"), 1500000) // 1.5 ms
	ts := httptest.NewServer(NewOpsHandler(m))
	defer ts.Close()

	resp, body := get(t, ts.URL+"/metrics")
	if resp.StatusCode != 200 {
		t.Fatalf("/metrics status = %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); ct != PromContentType {
		t.Fatalf("/metrics content-type = %q", ct)
	}
	if !strings.Contains(body, `bm_requests_total{endpoint="/probe",service="http"} 3`) {
		t.Fatalf("scrape missing counter:\n%s", body)
	}
	if !strings.Contains(body, `bm_service_latency_ms{endpoint="/probe",quantile="0.5"}`) {
		t.Fatalf("scrape missing sketch quantile:\n%s", body)
	}

	resp, body = get(t, ts.URL+"/healthz")
	if resp.StatusCode != 200 || body != "ok\n" {
		t.Fatalf("/healthz = %d %q", resp.StatusCode, body)
	}

	resp, _ = get(t, ts.URL+"/debug/pprof/")
	if resp.StatusCode != 200 {
		t.Fatalf("/debug/pprof/ status = %d", resp.StatusCode)
	}
	resp, _ = get(t, ts.URL+"/debug/pprof/cmdline")
	if resp.StatusCode != 200 {
		t.Fatalf("/debug/pprof/cmdline status = %d", resp.StatusCode)
	}
}

func TestStartOpsServesAndCloses(t *testing.T) {
	m := NewMetrics()
	m.Add("up_checks", 1)
	ops, err := StartOps("127.0.0.1:0", m)
	if err != nil {
		t.Fatal(err)
	}
	resp, body := get(t, "http://"+ops.Addr()+"/metrics")
	if resp.StatusCode != 200 || !strings.Contains(body, "up_checks 1") {
		t.Fatalf("scrape = %d %q", resp.StatusCode, body)
	}
	if err := ops.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := http.Get("http://" + ops.Addr() + "/metrics"); err == nil {
		t.Fatal("ops endpoint still reachable after Close")
	}
}

func TestOpsHandlerExtraRoutes(t *testing.T) {
	m := NewMetrics()
	h := NewOpsHandler(m, Route{
		Pattern: "/live",
		Handler: http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
			_, _ = w.Write([]byte("live-ok"))
		}),
	})
	srv := httptest.NewServer(h)
	defer srv.Close()
	for path, want := range map[string]string{"/live": "live-ok", "/healthz": "ok\n"} {
		resp, err := http.Get(srv.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if string(body) != want {
			t.Fatalf("%s body = %q, want %q", path, body, want)
		}
	}
}
