package server

import (
	"context"
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"headroom/internal/jobs"
	"headroom/internal/synth"
)

// forecastBody is a forecast request over n samples at ticksPerDay,
// projecting horizonDays ahead: sample 0 is first, the others are 1.
func forecastBody(t *testing.T, n, ticksPerDay, horizonDays int, first float64) string {
	t.Helper()
	series := make([]float64, n)
	for i := range series {
		series[i] = 1
	}
	series[0] = first
	b, err := json.Marshal(ForecastRequest{Series: series, TicksPerDay: ticksPerDay, HorizonDays: horizonDays})
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

// validateBody is a validate request for pool B with the given sweep size.
func validateBody(t *testing.T, levels, ticksPerLevel, servers int) string {
	t.Helper()
	loads := make([]float64, levels)
	for i := range loads {
		loads[i] = float64(i + 1)
	}
	b, err := json.Marshal(ValidateRequest{Pool: "B", Loads: loads, TicksPerLevel: ticksPerLevel, Servers: servers})
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

// validateWith is a pool B validate request over loads [100, 200] with one
// more field, field formatted with v; a "loads" field replaces the sweep.
func validateWith(field string, v float64) string {
	loads := `"loads":[100,200],`
	if strings.HasPrefix(field, `"loads"`) {
		loads = ""
	}
	return `{"pool":"B",` + loads + fmt.Sprintf(field, v) + `}`
}

// past is the next float64 above a positive bound; -past(b) is the next
// below -b.
func past(bound float64) float64 { return math.Nextafter(bound, math.Inf(1)) }

// TestRequestLimits holds each request limit at its edge: the bound itself
// decodes, one past it is rejected, and so are the inputs that once held a
// worker for an hour, answered a wrong peak, panicked a job or asked for
// gigabytes.
func TestRequestLimits(t *testing.T) {
	forecast := func(body string) error { _, err := decodeForecast([]byte(body)); return err }
	plan := func(body string) error { _, err := decodePlan([]byte(body)); return err }
	validate := func(body string) error { _, err := decodeValidate([]byte(body)); return err }
	cases := []struct {
		name   string
		decode func(string) error
		body   string
		ok     bool
	}{
		{"horizon at bound", forecast, forecastBody(t, 48, 24, maxHorizonDays, 1), true},
		{"horizon past bound", forecast, forecastBody(t, 48, 24, maxHorizonDays+1, 1), false},
		{"horizon of an hour's loop", forecast, forecastBody(t, 1440, 720, 1_000_000_000, 1), false},
		{"horizon wrapping the tick count", forecast, forecastBody(t, 1440, 720, 12810238940076077, 1), false},
		{"ticks per day at bound", forecast, forecastBody(t, 2*maxTicksPerDay+2, maxTicksPerDay, 1, 1), true},
		{"ticks per day past bound", forecast, forecastBody(t, 2*maxTicksPerDay+2, maxTicksPerDay+1, 1, 1), false},
		{"ticks per day overflowing two days", forecast, forecastBody(t, 2, 1<<62, 0, 1), false},
		{"zero load", forecast, forecastBody(t, 48, 24, 0, 0), true},
		{"negative load", forecast, forecastBody(t, 48, 24, 0, -5), false},
		{"load at bound", forecast, forecastBody(t, 48, 24, 0, math.Sqrt(math.MaxFloat64/48)), true},
		{"load past bound", forecast, forecastBody(t, 48, 24, 0, past(math.Sqrt(math.MaxFloat64/48))), false},
		{"loads whose day sums overflowed", forecast, overflowForecastBodies[0], false},
		{"loads whose squares overflowed", forecast, overflowForecastBodies[1], false},
		{"max groups at bound", plan, `{"pools":["B"],"max_groups":8}`, true},
		{"max groups past bound", plan, `{"pools":["B"],"max_groups":9}`, false},
		{"max groups of half a minute", plan, `{"pools":["D"],"max_groups":1000}`, false},
		{"two loads", validate, validateBody(t, 2, 0, 0), true},
		{"one load", validate, validateBody(t, 1, 0, 0), false},
		{"records at bound", validate, validateBody(t, 5, 100, maxValidateRecords/500), true},
		{"records past bound", validate, validateBody(t, 5, 100, maxValidateRecords/500+1), false},
		{"a million servers", validate, validateBody(t, 2, 0, 1_000_000), false},
		{"a hundred thousand loads", validate, validateBody(t, 100_000, 0, 0), false},
		{"overflowing product", validate, validateBody(t, 2, 1<<40, 1<<40), false},
		{"two ticks per level", validate, validateBody(t, 2, 2, 0), true},
		{"one tick per level", validate, validateBody(t, 2, 1, 0), false},
		{"least load at bound", validate, validateWith(`"loads":[%v,1]`, minLoadPerServer), true},
		{"least load past bound", validate, validateWith(`"loads":[%v,1]`, math.Nextafter(minLoadPerServer, 0)), false},
		{"loads too fine to fit", validate, `{"pool":"B","loads":[1e-300,1e-299]}`, false},
		{"level spacing at bound", validate, validateWith(`"loads":[100,%v]`, past(100*synth.LevelRatio(10))), true},
		{"level spacing past bound", validate, validateWith(`"loads":[100,%v]`, 100*synth.LevelRatio(10)), false},
		{"levels too close at 1 000 servers", validate, closeLevelBodies[0], false},
		{"levels too close at 10 servers", validate, closeLevelBodies[1], false},
		{"load at bound", validate, validateWith(`"loads":[1,%v]`, maxLoadPerServer), true},
		{"load past bound", validate, validateWith(`"loads":[1,%v]`, past(maxLoadPerServer)), false},
		{"loads that rendered +Inf", validate, `{"pool":"B","loads":[1e160,1e161]}`, false},
		{"latency delta at bound", validate, validateWith(`"change":{"latency_delta_ms":%v}`, maxChangeDelta), true},
		{"latency delta at negative bound", validate, validateWith(`"change":{"latency_delta_ms":%v}`, -maxChangeDelta), true},
		{"latency delta past bound", validate, validateWith(`"change":{"latency_delta_ms":%v}`, past(maxChangeDelta)), false},
		{"latency delta past negative bound", validate, validateWith(`"change":{"latency_delta_ms":%v}`, -past(maxChangeDelta)), false},
		{"latency delta that rendered +Inf", validate, validateWith(`"change":{"latency_delta_ms":%v}`, 1e308), false},
		{"paging delta at bound", validate, validateWith(`"change":{"mem_pages_delta":%v}`, maxChangeDelta), true},
		{"paging delta at negative bound", validate, validateWith(`"change":{"mem_pages_delta":%v}`, -maxChangeDelta), true},
		{"paging delta past bound", validate, validateWith(`"change":{"mem_pages_delta":%v}`, past(maxChangeDelta)), false},
		{"paging delta past negative bound", validate, validateWith(`"change":{"mem_pages_delta":%v}`, -past(maxChangeDelta)), false},
		{"paging delta that rendered +Inf", validate, validateWith(`"change":{"mem_pages_delta":%v}`, 1e308), false},
		{"zero tolerances", validate, validateWith(`"latency_tol_ms":%v,"cpu_tol_pct":0`, 0.0), true},
		{"negative latency tolerance", validate, validateWith(`"latency_tol_ms":%v`, -math.SmallestNonzeroFloat64), false},
		{"negative cpu tolerance", validate, validateWith(`"cpu_tol_pct":%v`, -math.SmallestNonzeroFloat64), false},
	}
	for _, tc := range cases {
		err := tc.decode(tc.body)
		if (err == nil) != tc.ok {
			t.Errorf("%s: err = %v, want ok = %v", tc.name, err, tc.ok)
		}
	}
}

// closeLevelBodies decoded, then failed their jobs with 422 "validate: change
// cpu fit: linear regression: zero variance in x": each level's windows
// showed the same RPS/server.
var closeLevelBodies = []string{
	`{"pool":"A","servers":1000,"loads":[0.1,0.10000000000000002],"ticks_per_level":2}`,
	`{"pool":"A","servers":10,"loads":[100,100.00000000000001],"ticks_per_level":2}`,
}

// overflowForecastBodies decoded, then failed their jobs with 422 "json:
// unsupported value: NaN": the first overflows a day's sum, the second the
// trend fit's sum of squares (four 1e300s, a constant series, rendered).
var overflowForecastBodies = []string{
	`{"series":[1e308,1e308,1e308,1e308],"ticks_per_day":2}`,
	`{"series":[1e300,1e300,0,0,1e300,1e300],"ticks_per_day":2}`,
}

// TestLargestForecastRequestRenders serves a forecast whose every sample is 0
// or at the bound, in whole days and within one, projected as far ahead as a
// request may ask: 200 and a done job. Past the bound it is a 400 naming the
// rule.
func TestLargestForecastRequestRenders(t *testing.T) {
	_, ts := newTestServer(t)
	const days, ticksPerDay = 5, 24
	bound := math.Sqrt(math.MaxFloat64 / (days * ticksPerDay))
	series := make([]float64, days*ticksPerDay)
	for i := range series {
		if day := i / ticksPerDay; day%2 == 0 || i%3 == 0 {
			series[i] = bound
		}
	}
	b, err := json.Marshal(ForecastRequest{Series: series, TicksPerDay: ticksPerDay, HorizonDays: maxHorizonDays})
	if err != nil {
		t.Fatal(err)
	}
	if code, v := submitWait(t, ts.URL, "/v1/forecast", string(b)); code != http.StatusOK || v.State != jobs.Done {
		t.Errorf("samples at the bound: %d %s: %s", code, v.State, v.Error)
	}
	for _, body := range overflowForecastBodies {
		code, resp := postJSON(t, ts.URL+"/v1/forecast?wait=true", body)
		if code != http.StatusBadRequest || !strings.Contains(string(resp), "squared loads must sum to a finite float64") {
			t.Errorf("%s = %d, want 400 naming the load bound: %s", body, code, resp)
		}
	}
}

// TestValidateDecodeBuildsNoFleet: resolving a validate request's pool reads
// the fleet built once, not a fresh default fleet per submission (about 70
// allocations).
func TestValidateDecodeBuildsNoFleet(t *testing.T) {
	body := []byte(`{"pool":"B","loads":[100,200]}`)
	allocs := testing.AllocsPerRun(20, func() {
		if _, err := decodeValidate(body); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 30 {
		t.Errorf("decodeValidate allocates %v times, want <= 30", allocs)
	}
}

// TestLargestValidateRequestRenders serves the validate requests at every
// bound at once — the largest load and the largest change deltas either
// way, at the fewest ticks, on one server and on a thousand — and
// requires a finite report: 200 and a done job, not a 422 from rendering.
func TestLargestValidateRequestRenders(t *testing.T) {
	s := New(Config{Workers: 1, QueueDepth: 1, JobTimeout: time.Minute})
	ts := httptest.NewServer(s.Handler())
	defer func() {
		ts.Close()
		s.Shutdown(context.Background())
	}()
	for _, pool := range []string{"B", "D"} {
		for _, servers := range []int{1, 1000} {
			for _, sign := range []float64{1, -1} {
				body := fmt.Sprintf(`{"pool":%q,"servers":%d,"loads":[%v,%v],"ticks_per_level":2,
				  "change":{"latency_delta_ms":%v,"mem_pages_delta":%v}}`,
					pool, servers, maxLoadPerServer/2, maxLoadPerServer, sign*maxChangeDelta, sign*maxChangeDelta)
				if _, err := decodeValidate([]byte(body)); err != nil {
					t.Fatalf("%s: not accepted: %v", body, err)
				}
				code, v := submitWait(t, ts.URL, "/v1/validate", body)
				if code != http.StatusOK || v.State != jobs.Done {
					t.Errorf("%s: %d %s: %s", body, code, v.State, v.Error)
				}
			}
		}
	}
}

// TestSmallestValidateRequestRenders serves the least loads a validation
// accepts, at the fewest ticks, on one server and on a thousand: the CPU fit
// still finds a spread, so the job is done, not a 422 from the fit.
func TestSmallestValidateRequestRenders(t *testing.T) {
	_, ts := newTestServer(t)
	for _, pool := range []string{"B", "D"} {
		for _, servers := range []int{1, 1000} {
			body := fmt.Sprintf(`{"pool":%q,"servers":%d,"loads":[%v,%v],"ticks_per_level":2}`,
				pool, servers, minLoadPerServer, 2*minLoadPerServer)
			code, v := submitWait(t, ts.URL, "/v1/validate", body)
			if code != http.StatusOK || v.State != jobs.Done {
				t.Errorf("%s: %d %s: %s", body, code, v.State, v.Error)
			}
		}
	}
}

// TestClosestValidateLevelsRender serves the closest levels a validation
// accepts, at the fewest ticks, on one server and on a thousand, from the
// least load to the largest: the replay tells the two levels apart, so the
// CPU fit finds a spread and the job is done, not a 422 from the fit. The
// two bodies that did fail it are 400s naming the rule.
func TestClosestValidateLevelsRender(t *testing.T) {
	_, ts := newTestServer(t)
	for _, pool := range []string{"B", "D"} {
		for _, servers := range []int{1, 1000} {
			for _, load := range []float64{minLoadPerServer, 0.1, 100, maxLoadPerServer / 2} {
				body := fmt.Sprintf(`{"pool":%q,"servers":%d,"loads":[%v,%v],"ticks_per_level":2}`,
					pool, servers, load, past(load*synth.LevelRatio(servers)))
				code, v := submitWait(t, ts.URL, "/v1/validate", body)
				if code != http.StatusOK || v.State != jobs.Done {
					t.Errorf("%s: %d %s: %s", body, code, v.State, v.Error)
				}
			}
		}
	}
	for _, body := range closeLevelBodies {
		code, raw := postJSON(t, ts.URL+"/v1/validate?wait=true", body)
		if code != http.StatusBadRequest || !strings.Contains(string(raw), "must exceed the one before by a factor over") {
			t.Errorf("%s: %d %s, want 400 naming the spacing rule", body, code, raw)
		}
	}
}
