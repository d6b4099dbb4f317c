package server

import (
	"crypto/sha256"
	"encoding/hex"
	"net/http"
	"testing"

	"headroom/internal/jobs"
)

// validatePins are sha256 digests of the served /v1/validate result (the
// job view's "result" bytes), every float at full precision. They were
// captured before the offline replay took a synthetic workload profile as
// its one input; a refactor of Step 3 or Step 4 must reproduce them.
var validatePins = map[string]string{
	`{"pool":"D","servers":7,"loads":[33.3,120.7,333.1,401.9],"ticks_per_level":9,"seed":5,
	  "change":{"name":"frac","latency_delta_ms":0.35,"cpu_slope_frac":0.07,"mem_pages_delta":1.5}}`: "919285c4aaa15e851ee7bb83d049050ea73998984c5102ac88b95227e47d4402",
	`{"pool":"B","servers":3,"loads":[0.01,0.5,2.25],"ticks_per_level":4,"seed":9,
	  "change":{"name":"tiny","cpu_slope_frac":-0.1}}`: "25272323d734d9eff08552a5c866d9d351c3da4f85ee281cb9caadf240a20c26",
}

func TestValidateResultPinnedAcrossVersions(t *testing.T) {
	_, ts := newTestServer(t)
	for body, want := range validatePins {
		code, v := submitWait(t, ts.URL, "/v1/validate", body)
		if code != http.StatusOK || v.State != jobs.Done {
			t.Fatalf("%s: %d %s: %s", body, code, v.State, v.Error)
		}
		sum := sha256.Sum256(v.Result)
		if got := hex.EncodeToString(sum[:]); got != want {
			t.Errorf("%s: sha256 %s, pinned %s", body, got, want)
		}
	}
}
