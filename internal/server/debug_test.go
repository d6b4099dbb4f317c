package server

import (
	"io"
	"net/http"
	"net/http/httptest"
	"testing"

	"headroom/internal/obs"
)

// TestDebugMuxServesEveryRoute: the -debug-addr listener's mux answers 200
// on pprof's index and cmdline and on the two debug routes it shares with
// the main listener.
func TestDebugMuxServesEveryRoute(t *testing.T) {
	ts := httptest.NewServer(DebugMux(obs.NewTracer(4)))
	defer ts.Close()
	for _, path := range []string{"/debug/pprof/", "/debug/pprof/cmdline", "/debug/traces", "/debug/goroutines"} {
		resp, err := http.Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK || len(body) == 0 {
			t.Errorf("GET %s = %d with %d bytes, want 200 and a body", path, resp.StatusCode, len(body))
		}
	}
}
