package server

import (
	"encoding/json"
	"testing"
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
	}
	for _, tc := range cases {
		err := tc.decode(tc.body)
		if (err == nil) != tc.ok {
			t.Errorf("%s: err = %v, want ok = %v", tc.name, err, tc.ok)
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
