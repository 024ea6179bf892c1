package main

import (
	"context"
	"flag"
	"io"
	"log/slog"
	"net"
	"net/http"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"

	"aimq/internal/core"
	"aimq/internal/datagen"
	"aimq/internal/relation"
	"aimq/internal/service"
	"aimq/internal/webdb"
)

// TestDefaultConfigs pins the configs aimq-serve runs with when given no
// flags — the settings perfbench copies as the shipped ones — and that the
// lifecycle and the audit header carry the service's engine config.
func TestDefaultConfigs(t *testing.T) {
	o, err := parseFlags("aimq-serve", nil, flag.ContinueOnError)
	if err != nil {
		t.Fatal(err)
	}
	if want := (core.Config{K: 10, Tsim: 0.5, OnFailure: core.FailDegrade}); o.svc.Engine != want {
		t.Errorf("engine = %+v, want %+v", o.svc.Engine, want)
	}
	wantRes := webdb.ResilientConfig{
		Retry:   webdb.RetryPolicy{MaxAttempts: 3, BaseDelay: 50 * time.Millisecond},
		Breaker: webdb.BreakerConfig{FailureThreshold: 5, OpenTimeout: 10 * time.Second},
	}
	if !o.resilient || !reflect.DeepEqual(o.res, wantRes) {
		t.Errorf("resilience = %t %+v, want on %+v", o.resilient, o.res, wantRes)
	}
	if want := (service.LearnConfig{Seed: 1, Terr: 0.15, Workers: 1}); o.learn != want {
		t.Errorf("learn = %+v, want %+v", o.learn, want)
	}
	lc := o.lifecycle
	if lc.ShadowSample != 64 || lc.MaxZeroRise != 0.25 || lc.MaxSimDrop != 0.10 ||
		lc.Keep != 2 || lc.ProbationWindow != 200 || lc.ProbationZeroRate != 0.6 ||
		lc.Retry != (webdb.RetryPolicy{BaseDelay: 30 * time.Second, MaxDelay: 15 * time.Minute}) ||
		lc.Interval != 0 || !o.refreshOnBreach {
		t.Errorf("lifecycle = %+v", lc)
	}
	checkEngineShared(t, o)
}

// TestFlagsBindConfigs: non-default flags land in the package configs, and
// the derived engine settings reach the lifecycle and the audit header.
func TestFlagsBindConfigs(t *testing.T) {
	o, err := parseFlags("aimq-serve", []string{
		"-k", "7", "-fail-degrade=false", "-prune=false", "-max-queries-per-base", "60",
		"-seed", "9", "-probe-workers", "4", "-drift-interval", "1m",
		"-audit-log", "a.jsonl", "-model", "m.json",
	}, flag.ContinueOnError)
	if err != nil {
		t.Fatal(err)
	}
	want := core.Config{K: 7, Tsim: 0.5, MaxQueriesPerBase: 60, OnFailure: core.FailAbort, DisablePruning: true}
	if o.svc.Engine != want {
		t.Errorf("engine = %+v, want %+v", o.svc.Engine, want)
	}
	if d := o.drift; d.Interval != time.Minute || d.Seed != 9 || d.ProbeWorkers != 4 {
		t.Errorf("drift = %+v", d)
	}
	if o.lifecycle.AuditPath != "a.jsonl" || o.lifecycle.ModelPath != "m.json" {
		t.Errorf("lifecycle paths = %q, %q", o.lifecycle.AuditPath, o.lifecycle.ModelPath)
	}
	checkEngineShared(t, o)
}

func checkEngineShared(t *testing.T, o *options) {
	t.Helper()
	if o.lifecycle.Engine != o.svc.Engine {
		t.Errorf("lifecycle engine %+v != service engine %+v", o.lifecycle.Engine, o.svc.Engine)
	}
	if got := o.audit.Header.Engine.CoreConfig(); got != o.svc.Engine {
		t.Errorf("audit header engine %+v != service engine %+v", got, o.svc.Engine)
	}
}

// TestRunBoots starts the full stack in-process — resilient local source,
// model learn and save, audit log, drift monitor, refresh controller — and
// checks /healthz, /metrics and one answer, then that cancelling the
// context drains and returns nil.
func TestRunBoots(t *testing.T) {
	dir := t.TempDir()
	data := filepath.Join(dir, "cardb.csv")
	if err := relation.SaveCSV(data, datagen.GenerateCarDB(1500, 1).Rel); err != nil {
		t.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := ln.Addr().String()
	ln.Close()

	o, err := parseFlags("aimq-serve", []string{
		"-data", data, "-model", filepath.Join(dir, "m.json"), "-addr", addr,
		"-audit-log", filepath.Join(dir, "audit.jsonl"),
		"-drift-interval", "1h", "-refresh-interval", "1h",
	}, flag.ContinueOnError)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	done := make(chan error, 1)
	go func() { done <- run(ctx, o, slog.New(slog.NewTextHandler(io.Discard, nil))) }()

	base := "http://" + addr
	get := func(path string) (int, string) {
		t.Helper()
		resp, err := http.Get(base + path)
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		defer resp.Body.Close()
		body, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		return resp.StatusCode, string(body)
	}
	deadline := time.Now().Add(30 * time.Second)
	for {
		resp, err := http.Get(base + "/healthz")
		if err == nil {
			resp.Body.Close()
			if resp.StatusCode != http.StatusOK {
				t.Fatalf("/healthz status %d", resp.StatusCode)
			}
			break
		}
		select {
		case err := <-done:
			t.Fatalf("run returned before serving: %v", err)
		default:
		}
		if time.Now().After(deadline) {
			t.Fatalf("server not up: %v", err)
		}
		time.Sleep(20 * time.Millisecond)
	}

	code, body := get("/answer?q=Model+like+Camry,+Price+like+10000&k=3")
	if code != http.StatusOK || !strings.Contains(body, `"answers":[{`) {
		t.Fatalf("/answer = %d %s", code, body)
	}
	code, body = get("/metrics")
	if code != http.StatusOK {
		t.Fatalf("/metrics status %d", code)
	}
	for _, series := range []string{
		"aimq_model_generation", "aimq_model_drift_ticks_total", "aimq_audit_events_written_total",
	} {
		if !strings.Contains(body, "\n"+series) {
			t.Errorf("/metrics lacks %s", series)
		}
	}

	cancel()
	select {
	case err := <-done:
		if err != nil {
			t.Errorf("run after cancel = %v, want nil", err)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("run did not return after cancel")
	}
}
