package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"net"
	"net/http"
	"os"
	"strings"
	"syscall"
	"testing"
	"time"
)

func TestRunRejectsBadFlags(t *testing.T) {
	if err := run([]string{"-nope"}, io.Discard); err == nil {
		t.Error("unknown flag must error")
	}
}

func TestRunSurfacesListenError(t *testing.T) {
	// The main listener is claimed before the lab build, so an
	// unparseable address fails fast instead of after seconds of
	// bootstrapping.
	err := run([]string{"-addr", "256.256.256.256:99999"}, io.Discard)
	if err == nil {
		t.Fatal("invalid listen address must error")
	}
	if !strings.Contains(err.Error(), "listen") {
		t.Errorf("error %v should come from the listen path", err)
	}
}

func TestRunRejectsBadLogLevel(t *testing.T) {
	err := run([]string{"-log-level", "loud"}, io.Discard)
	if err == nil || !strings.Contains(err.Error(), "log-level") {
		t.Errorf("invalid log level must error, got %v", err)
	}
}

func TestRunRejectsNegativeQueueDepth(t *testing.T) {
	err := run([]string{"-queue-depth", "-1"}, io.Discard)
	if err == nil || !strings.Contains(err.Error(), "queue-depth") {
		t.Errorf("negative queue depth must error, got %v", err)
	}
}

func TestRunRejectsNegativeRequestTimeout(t *testing.T) {
	err := run([]string{"-request-timeout", "-5s"}, io.Discard)
	if err == nil || !strings.Contains(err.Error(), "request-timeout") {
		t.Errorf("negative request timeout must error, got %v", err)
	}
}

func TestVersionFlagPrintsBuildInfo(t *testing.T) {
	var buf strings.Builder
	if err := run([]string{"-version"}, &buf); err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(buf.String(), "crowdlearn ") {
		t.Errorf("-version output %q should start with the binary identity", buf.String())
	}
}

func TestRunRejectsBadDebugAddr(t *testing.T) {
	// The debug listener is claimed before the lab build, so a bad
	// address fails fast instead of after seconds of bootstrapping.
	err := run([]string{"-debug-addr", "256.256.256.256:99999"}, io.Discard)
	if err == nil || !strings.Contains(err.Error(), "debug-addr") {
		t.Errorf("invalid -debug-addr must error, got %v", err)
	}
}

func TestRunRejectsBadPersistenceFlags(t *testing.T) {
	cases := []struct {
		name string
		args []string
		want string
	}{
		{"negative checkpoint-every", []string{"-state-dir", "d", "-checkpoint-every", "-1"}, "checkpoint-every"},
		{"zero checkpoint-retain", []string{"-state-dir", "d", "-checkpoint-retain", "0"}, "checkpoint-retain"},
		{"negative checkpoint-retain", []string{"-state-dir", "d", "-checkpoint-retain", "-3"}, "checkpoint-retain"},
		{"checkpoint-every without state-dir", []string{"-checkpoint-every", "4"}, "requires -state-dir"},
		{"checkpoint-retain without state-dir", []string{"-checkpoint-retain", "5"}, "requires -state-dir"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			err := run(tc.args, io.Discard)
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Errorf("run(%v) = %v, want error containing %q", tc.args, err, tc.want)
			}
		})
	}
}

func TestRunRejectsBadSupervisionFlags(t *testing.T) {
	cases := []struct {
		name string
		args []string
		want string
	}{
		{"negative campaigns", []string{"-campaigns", "-2"}, "campaigns"},
		{"negative stall-timeout", []string{"-stall-timeout", "-1m"}, "stall-timeout"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			err := run(tc.args, io.Discard)
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Errorf("run(%v) = %v, want error containing %q", tc.args, err, tc.want)
			}
		})
	}
}

// TestShutdownSequenceOrdering pins the graceful-shutdown contract that
// regressed before: an HTTP drain failure must not skip the worker
// drain (it is still reported), and a worker that fails to drain
// surfaces its error.
func TestShutdownSequenceOrdering(t *testing.T) {
	quiet := slog.New(slog.NewTextHandler(io.Discard, nil))

	var order []string
	err := shutdownSequence(
		func(context.Context) error { order = append(order, "http"); return errors.New("connection stuck") },
		func(context.Context) error { order = append(order, "drain"); return nil },
		quiet, time.Second)
	if err == nil || !strings.Contains(err.Error(), "http shutdown") {
		t.Errorf("http failure must still surface, got %v", err)
	}
	if strings.Join(order, ",") != "http,drain" {
		t.Errorf("order = %v, want http,drain", order)
	}

	err = shutdownSequence(
		func(context.Context) error { return nil },
		func(context.Context) error { return errors.New("worker wedged") },
		quiet, time.Second)
	if err == nil || !strings.Contains(err.Error(), "worker wedged") {
		t.Errorf("drain failure must surface, got %v", err)
	}
}

// startDaemon runs the daemon on a loopback port with args and waits
// until it serves; the channel yields run's result.
func startDaemon(t *testing.T, args ...string) (string, <-chan error) {
	t.Helper()
	addrCh := make(chan net.Addr, 1)
	onListen = func(a net.Addr) { addrCh <- a }
	t.Cleanup(func() { onListen = nil })
	runErr := make(chan error, 1)
	go func() {
		runErr <- run(append([]string{"-addr", "127.0.0.1:0", "-log-level", "error"}, args...), io.Discard)
	}()
	var base string
	select {
	case a := <-addrCh:
		base = "http://" + a.String()
	case err := <-runErr:
		t.Fatalf("daemon exited before listening: %v", err)
	case <-time.After(60 * time.Second):
		t.Fatal("daemon never claimed its listener")
	}
	// The listener is up before the lab build; wait for serving.
	deadline := time.Now().Add(120 * time.Second)
	for {
		resp, err := http.Get(base + "/campaigns")
		if err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return base, runErr
			}
		}
		if time.Now().After(deadline) {
			t.Fatal("daemon never became healthy")
		}
		time.Sleep(200 * time.Millisecond)
	}
}

// stopDaemon sends SIGTERM and waits for run to return cleanly.
func stopDaemon(t *testing.T, runErr <-chan error) {
	t.Helper()
	if err := syscall.Kill(os.Getpid(), syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	select {
	case err := <-runErr:
		if err != nil {
			t.Fatalf("daemon shutdown: %v", err)
		}
	case <-time.After(60 * time.Second):
		t.Fatal("daemon never exited after SIGTERM")
	}
}

// imageIDs lists the daemon's assessable image IDs.
func imageIDs(t *testing.T, base string) []int {
	t.Helper()
	resp, err := http.Get(base + "/images")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var imgs struct {
		ImageIDs []int `json:"imageIds"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&imgs); err != nil {
		t.Fatal(err)
	}
	return imgs.ImageIDs
}

// TestGracefulShutdownDrainsInFlight is the end-to-end regression test
// for SIGTERM under concurrent load: every /assess in flight at signal
// time completes with a real assessment, the daemon exits cleanly, and
// the final checkpoint lands in the state directory's root. A restart
// on the same directory recovers it: /stats reports the served cycles
// as the next cycle index.
func TestGracefulShutdownDrainsInFlight(t *testing.T) {
	if testing.Short() {
		t.Skip("builds the full lab")
	}
	stateDir := t.TempDir()
	args := []string{
		"-state-dir", stateDir,
		"-checkpoint-every", "50", // force the final checkpoint to do the work
		"-queue-depth", "32",
	}
	base, runErr := startDaemon(t, args...)
	ids := imageIDs(t, base)
	if len(ids) < 32 {
		t.Fatalf("registry too small: %d", len(ids))
	}

	const callers = 6
	results := make(chan error, callers)
	for i := 0; i < callers; i++ {
		i := i
		go func() {
			body, _ := json.Marshal(map[string]any{
				"context":  "morning",
				"imageIds": ids[i*4 : i*4+4],
			})
			resp, err := http.Post(base+"/assess", "application/json", bytes.NewReader(body))
			if err != nil {
				results <- err
				return
			}
			defer resp.Body.Close()
			if resp.StatusCode != http.StatusOK {
				data, _ := io.ReadAll(resp.Body)
				results <- fmt.Errorf("assess status %d: %s", resp.StatusCode, data)
				return
			}
			results <- nil
		}()
	}
	// Let the batch reach the server, then SIGTERM mid-flight. The
	// requests are serialised through one worker, so several are still
	// queued or in flight when the signal lands.
	time.Sleep(150 * time.Millisecond)
	if err := syscall.Kill(os.Getpid(), syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < callers; i++ {
		if err := <-results; err != nil {
			t.Errorf("in-flight assess dropped during shutdown: %v", err)
		}
	}
	select {
	case err := <-runErr:
		if err != nil {
			t.Fatalf("daemon shutdown: %v", err)
		}
	case <-time.After(60 * time.Second):
		t.Fatal("daemon never exited after SIGTERM")
	}
	// The final checkpoint covers the drained cycles.
	entries, err := os.ReadDir(stateDir)
	if err != nil {
		t.Fatal(err)
	}
	var sawCheckpoint bool
	for _, e := range entries {
		if strings.HasPrefix(e.Name(), "checkpoint-") && strings.HasSuffix(e.Name(), ".ckpt") {
			sawCheckpoint = true
		}
	}
	if !sawCheckpoint {
		t.Errorf("no final checkpoint in %s: %v", stateDir, entries)
	}

	base, runErr = startDaemon(t, args...)
	resp, err := http.Get(base + "/stats")
	if err != nil {
		t.Fatal(err)
	}
	var stats struct {
		Recovery *struct {
			Outcome   string `json:"outcome"`
			NextCycle int    `json:"nextCycle"`
		} `json:"recovery"`
	}
	err = json.NewDecoder(resp.Body).Decode(&stats)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if stats.Recovery == nil || stats.Recovery.NextCycle != callers {
		t.Errorf("restart recovery = %+v, want nextCycle %d", stats.Recovery, callers)
	}
	stopDaemon(t, runErr)
}

// TestCampaignModeHonoursQueueAndTimeoutFlags: with -campaigns 2,
// -queue-depth 0 queues a burst without a bound (no 429) and
// -request-timeout bounds each assessment (the burst's tail fails with
// a deadline instead of waiting its turn).
func TestCampaignModeHonoursQueueAndTimeoutFlags(t *testing.T) {
	if testing.Short() {
		t.Skip("builds the full lab")
	}
	const timeout = 150 * time.Millisecond
	logs := captureStderr(t)
	base, runErr := startDaemon(t, "-campaigns", "2", "-queue-depth", "0", "-request-timeout", timeout.String(), "-log-level", "warn")
	defer stopDaemon(t, runErr)
	ids := imageIDs(t, base)

	// 40 ten-image cycles take well over the timeout on one worker (early
	// cycles run in under 10 ms on a fast host), and arrive together: any
	// bounded queue of the old default depth (8) would reject most of
	// them. The burst stays below the ~45 cycles after which the default
	// IPD budget runs out: past that, AI-only cycles take well under a
	// millisecond and the rest of the queue drains inside any timeout.
	const burst = 40
	type answer struct {
		code    int
		body    string
		elapsed time.Duration
		err     error
	}
	answers := make(chan answer, burst)
	for i := 0; i < burst; i++ {
		i := i
		go func() {
			body, _ := json.Marshal(map[string]any{"context": "evening", "imageIds": ids[(i%20)*10 : (i%20)*10+10]})
			began := time.Now()
			resp, err := http.Post(base+"/campaigns/c00/assess", "application/json", bytes.NewReader(body))
			if err != nil {
				answers <- answer{err: err}
				return
			}
			defer resp.Body.Close()
			data, _ := io.ReadAll(resp.Body)
			answers <- answer{code: resp.StatusCode, body: string(data), elapsed: time.Since(began)}
		}()
	}
	var ok, timedOut int
	for i := 0; i < burst; i++ {
		a := <-answers
		switch {
		case a.err != nil:
			t.Errorf("assess: %v", a.err)
		case a.code == http.StatusOK:
			ok++
		case strings.Contains(a.body, context.DeadlineExceeded.Error()):
			timedOut++
			if a.code != http.StatusGatewayTimeout {
				t.Errorf("timed-out assess answered %d, want %d", a.code, http.StatusGatewayTimeout)
			}
		default:
			t.Errorf("assess status %d: %s", a.code, a.body)
		}
		if a.elapsed > timeout+5*time.Second {
			t.Errorf("assess took %v with -request-timeout %v", a.elapsed, timeout)
		}
	}
	if ok == 0 || timedOut == 0 {
		t.Errorf("%d answered and %d timed out of %d; want both", ok, timedOut, burst)
	}
	// A timeout is logged as a warning, never as a failed request. The
	// middleware logs after the response is written, so wait for the
	// lines to land.
	for deadline := time.Now().Add(5 * time.Second); strings.Count(logs(), `msg="request timed out"`) < timedOut && time.Now().Before(deadline); {
		time.Sleep(20 * time.Millisecond)
	}
	out := logs()
	if got := strings.Count(out, `level=WARN msg="request timed out"`); got != timedOut {
		t.Errorf("%d timed-out requests logged at WARN, want %d", got, timedOut)
	}
	if strings.Contains(out, "level=ERROR") {
		t.Errorf("a request timeout was logged at ERROR:\n%s", out)
	}
}

// captureStderr points os.Stderr, where the daemon logs, at a file until
// the test ends, and returns a reader of what has been logged so far.
// Call it before startDaemon: the daemon's logger binds os.Stderr when
// it starts.
func captureStderr(t *testing.T) func() string {
	t.Helper()
	f, err := os.CreateTemp(t.TempDir(), "stderr")
	if err != nil {
		t.Fatal(err)
	}
	saved := os.Stderr
	os.Stderr = f
	t.Cleanup(func() {
		os.Stderr = saved
		f.Close()
	})
	return func() string {
		data, err := os.ReadFile(f.Name())
		if err != nil {
			t.Fatal(err)
		}
		return string(data)
	}
}
