package server

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"net/http"
	"testing"

	"headroom/internal/jobs"
)

// validatePins are sha256 digests of the served /v1/validate result (the
// job view's "result" bytes) in compact form, every float at full precision.
// They were captured before the offline replay took a synthetic workload
// profile as its one input, and re-captured in compact form before the view
// dropped its indentation: a refactor of Step 3 or Step 4, or of the view's
// layout, must reproduce them.
var validatePins = map[string]string{
	`{"pool":"D","servers":7,"loads":[33.3,120.7,333.1,401.9],"ticks_per_level":9,"seed":5,
	  "change":{"name":"frac","latency_delta_ms":0.35,"cpu_slope_frac":0.07,"mem_pages_delta":1.5}}`: "4f509ee9ddad31a5aec8913f3cfba13af045ed9e531839a31e32c960e7338adb",
	`{"pool":"B","servers":3,"loads":[0.01,0.5,2.25],"ticks_per_level":4,"seed":9,
	  "change":{"name":"tiny","cpu_slope_frac":-0.1}}`: "2df4e283eed70952afee8ff83bdd9fe986a55ad246aa0b8c231f255fab165795",
}

func TestValidateResultPinnedAcrossVersions(t *testing.T) {
	_, ts := newTestServer(t)
	for body, want := range validatePins {
		code, v := submitWait(t, ts.URL, "/v1/validate", body)
		if code != http.StatusOK || v.State != jobs.Done {
			t.Fatalf("%s: %d %s: %s", body, code, v.State, v.Error)
		}
		var compact bytes.Buffer
		if err := json.Compact(&compact, v.Result); err != nil {
			t.Fatal(err)
		}
		sum := sha256.Sum256(compact.Bytes())
		if got := hex.EncodeToString(sum[:]); got != want {
			t.Errorf("%s: sha256 %s, pinned %s", body, got, want)
		}
	}
}
