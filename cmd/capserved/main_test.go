package main

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net"
	"net/http"
	"os/signal"
	"regexp"
	"strconv"
	"strings"
	"syscall"
	"testing"
	"time"
)

// startServer launches run() with an ephemeral port and returns the base
// URL plus the channel run's error will arrive on.
func startServer(t *testing.T, ctx context.Context, extra ...string) (string, chan error) {
	t.Helper()
	ready := make(chan net.Addr, 1)
	done := make(chan error, 1)
	args := append([]string{"-addr", "127.0.0.1:0", "-workers", "2", "-drain-timeout", "2m"}, extra...)
	go func() { done <- run(ctx, args, ready) }()
	select {
	case addr := <-ready:
		return "http://" + addr.String(), done
	case err := <-done:
		t.Fatalf("server exited before binding: %v", err)
	case <-time.After(10 * time.Second):
		t.Fatal("server never bound")
	}
	panic("unreachable")
}

type jobView struct {
	JobID  string          `json:"job_id"`
	State  string          `json:"state"`
	Result json.RawMessage `json:"result"`
	Error  string          `json:"error"`
	Self   string          `json:"self"`
}

func post(t *testing.T, url, body string) (int, []byte) {
	t.Helper()
	resp, err := http.Post(url, "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatalf("POST %s: %v", url, err)
	}
	defer resp.Body.Close()
	b, _ := io.ReadAll(resp.Body)
	return resp.StatusCode, b
}

func get(t *testing.T, url string) (int, []byte) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatalf("GET %s: %v", url, err)
	}
	defer resp.Body.Close()
	b, _ := io.ReadAll(resp.Body)
	return resp.StatusCode, b
}

// pollJob polls the job URL until the job is terminal.
func pollJob(t *testing.T, base, self string) jobView {
	t.Helper()
	deadline := time.Now().Add(2 * time.Minute)
	for {
		code, body := get(t, base+self)
		if code != http.StatusOK {
			t.Fatalf("poll %s = %d: %s", self, code, body)
		}
		var v jobView
		if err := json.Unmarshal(body, &v); err != nil {
			t.Fatalf("unmarshal job: %v", err)
		}
		if v.State == "done" || v.State == "failed" {
			return v
		}
		if time.Now().After(deadline) {
			t.Fatalf("job %s stuck in %s", self, v.State)
		}
		time.Sleep(25 * time.Millisecond)
	}
}

func metricValue(t *testing.T, text, name string) float64 {
	t.Helper()
	re := regexp.MustCompile(`(?m)^` + regexp.QuoteMeta(name) + ` (\S+)$`)
	m := re.FindStringSubmatch(text)
	if m == nil {
		t.Fatalf("metric %s not found in exposition", name)
	}
	v, err := strconv.ParseFloat(m[1], 64)
	if err != nil {
		t.Fatalf("parse %s: %v", name, err)
	}
	return v
}

// TestCapservedEndToEnd is the acceptance test: ephemeral port, two
// identical plan jobs with the second a byte-identical cache hit, then
// SIGTERM drains an in-flight job and the server exits cleanly (run
// returning nil is main exiting 0).
func TestCapservedEndToEnd(t *testing.T) {
	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGTERM)
	defer stop()
	base, done := startServer(t, ctx)

	code, body := get(t, base+"/healthz")
	if code != http.StatusOK {
		t.Fatalf("healthz = %d: %s", code, body)
	}

	// Two identical plan jobs, submitted async and polled by ID.
	const planReq = `{"pools":["B"],"days":1,"seed":11}`
	code, body = post(t, base+"/v1/plan", planReq)
	if code != http.StatusAccepted {
		t.Fatalf("first submit = %d: %s", code, body)
	}
	var env jobView
	json.Unmarshal(body, &env)
	first := pollJob(t, base, env.Self)
	if first.State != "done" {
		t.Fatalf("first job failed: %s", first.Error)
	}

	code, body = post(t, base+"/v1/plan", planReq)
	if code != http.StatusAccepted {
		t.Fatalf("second submit = %d: %s", code, body)
	}
	json.Unmarshal(body, &env)
	second := pollJob(t, base, env.Self)
	if second.State != "done" {
		t.Fatalf("second job failed: %s", second.Error)
	}
	if second.JobID == first.JobID {
		t.Error("second submission reused the first job ID")
	}
	if !bytes.Equal(first.Result, second.Result) {
		t.Errorf("cached result not byte-identical:\nfirst:  %s\nsecond: %s",
			first.Result, second.Result)
	}

	_, metricsBody := get(t, base+"/metrics")
	text := string(metricsBody)
	if hits := metricValue(t, text, "capserved_cache_hits_total"); hits != 1 {
		t.Errorf("cache hits = %v, want 1", hits)
	}
	if misses := metricValue(t, text, "capserved_cache_misses_total"); misses != 1 {
		t.Errorf("cache misses = %v, want 1", misses)
	}

	// Leave a fresh (uncached) plan job in flight, then SIGTERM: the drain
	// must finish the job and run must return nil — the exit-0 path.
	code, body = post(t, base+"/v1/plan", `{"pools":["B"],"days":1,"seed":99}`)
	if code != http.StatusAccepted {
		t.Fatalf("in-flight submit = %d: %s", code, body)
	}
	json.Unmarshal(body, &env)
	inflightID := env.JobID

	if err := syscall.Kill(syscall.Getpid(), syscall.SIGTERM); err != nil {
		t.Fatalf("send SIGTERM: %v", err)
	}
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("run after SIGTERM = %v, want nil (exit 0)", err)
		}
	case <-time.After(90 * time.Second):
		t.Fatal("server did not drain after SIGTERM")
	}
	// run returning nil proves queue.Close drained the in-flight job
	// within the window rather than abandoning it.
	t.Logf("drained with job %s in flight", inflightID)
}

// TestCapservedHelpIsNoError: -h prints the usage and returns nil without
// listening.
func TestCapservedHelpIsNoError(t *testing.T) {
	if err := run(context.Background(), []string{"-h"}, nil); err != nil {
		t.Errorf("run(-h) = %v, want nil", err)
	}
}

func TestCapservedRejectsBadFlags(t *testing.T) {
	cases := [][]string{
		{"-workers", "-1"},
		{"-queue", "-2"},
		{"-cache", "0"},
		{"-job-timeout", "-5s"},
		{"-drain-timeout", "0s"},
		{"-shards", "-1"},
		{"-no-such-flag"},
	}
	for _, args := range cases {
		t.Run(strings.Join(args, " "), func(t *testing.T) {
			if err := run(context.Background(), args, nil); err == nil {
				t.Errorf("run(%v) succeeded, want usage error", args)
			}
		})
	}
}
