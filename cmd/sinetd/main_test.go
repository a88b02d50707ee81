package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"strings"
	"testing"
	"time"

	sinet "github.com/sinet-io/sinet"
	"github.com/sinet-io/sinet/internal/service"
)

func TestRunRejectsBadFlags(t *testing.T) {
	cases := []struct {
		name string
		args []string
		want string
	}{
		{"negative workers", []string{"-workers", "-1"}, "-workers must be non-negative"},
		{"zero queue", []string{"-queue", "0"}, "-queue must be positive"},
		{"negative queue", []string{"-queue", "-5"}, "-queue must be positive"},
		{"negative cache", []string{"-cache-bytes", "-1"}, "-cache-bytes must be non-negative"},
		{"zero drain timeout", []string{"-drain-timeout", "0s"}, "-drain-timeout must be positive"},
		{"bad log format", []string{"-log-format", "yaml"}, "-log-format must be text or json"},
		{"negative job deadline", []string{"-job-deadline", "-1s"}, "-job-deadline must be non-negative"},
		{"negative max retries", []string{"-max-retries", "-1"}, "-max-retries must be non-negative"},
		{"negative heartbeat", []string{"-heartbeat-timeout", "-1s"}, "-heartbeat-timeout must be non-negative"},
		{"negative retry-after", []string{"-retry-after", "-1s"}, "-retry-after must be non-negative"},
		{"negative max-shards", []string{"-max-shards", "-1"}, "-max-shards must be non-negative"},
		{"coordinator without peers", []string{"-coordinator"}, "-coordinator requires a -peers worker list"},
		{"heartbeat on coordinator", []string{"-coordinator", "-peers", "http://w1:1", "-heartbeat-timeout", "1s"}, "-heartbeat-timeout applies to workers, not to a -coordinator"},
		{"bad peer url", []string{"-peers", "ftp://w1"}, "not an http(s) base URL"},
		{"advertise without peers", []string{"-advertise", "http://me:1"}, "-advertise only makes sense with -peers"},
	}
	for _, tc := range cases {
		err := run(tc.args)
		if err == nil {
			t.Errorf("%s: expected error", tc.name)
			continue
		}
		if !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: error %q does not mention %q", tc.name, err, tc.want)
		}
	}
}

func TestNewLoggerFormats(t *testing.T) {
	for _, format := range []string{"text", "json"} {
		if _, err := newLogger(format, io.Discard); err != nil {
			t.Errorf("newLogger(%q): %v", format, err)
		}
	}
	if _, err := newLogger("xml", io.Discard); err == nil {
		t.Error("newLogger(xml): expected error")
	}
}

// smokeSpec is the small passive campaign the smoke test serves: one
// site, the 3-satellite FOSSA fleet, one day — seconds of work.
const smokeSpec = `{
  "kind": "passive",
  "passive": {"seed": 7, "days": 1, "sites": ["HK"], "constellations": ["FOSSA"]}
}`

// TestSmokeEndToEnd is the end-to-end self check behind `make
// serve-smoke`: start a daemon on a random port with the cache DISABLED
// (so the served result is freshly computed, not replayed), drive a job
// through the HTTP API, and require the served bytes to be byte-identical
// to the same campaign run directly through the sinet library.
func TestSmokeEndToEnd(t *testing.T) {
	if testing.Short() {
		t.Skip("runs a one-day campaign twice")
	}
	svc, err := service.New(service.Config{CacheBytes: 0})
	if err != nil {
		t.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	httpSrv := &http.Server{Handler: svc.Handler()}
	go func() { _ = httpSrv.Serve(ln) }()
	defer func() { _ = httpSrv.Close() }()
	base := "http://" + ln.Addr().String()
	t.Logf("daemon on %s (cache disabled)", base)

	// Health first: the daemon must be live before it is load-bearing.
	r, err := http.Get(base + "/healthz")
	if err != nil {
		t.Fatalf("healthz: %v", err)
	}
	if _, err := readAll(r, http.StatusOK); err != nil {
		t.Fatalf("healthz: %v", err)
	}

	// Submit over the wire.
	resp, err := http.Post(base+"/v1/jobs", "application/json", strings.NewReader(smokeSpec))
	if err != nil {
		t.Fatalf("submit: %v", err)
	}
	var submitted struct {
		ID    string `json:"id"`
		State string `json:"state"`
	}
	if err := decodeInto(resp, http.StatusAccepted, &submitted); err != nil {
		t.Fatalf("submit: %v", err)
	}
	t.Logf("submitted job %s", submitted.ID)

	// Poll to completion.
	deadline := time.Now().Add(2 * time.Minute)
	for {
		r, err := http.Get(base + "/v1/jobs/" + submitted.ID)
		if err != nil {
			t.Fatalf("poll: %v", err)
		}
		var view struct {
			State string `json:"state"`
			Error string `json:"error"`
		}
		if err := decodeInto(r, http.StatusOK, &view); err != nil {
			t.Fatalf("poll: %v", err)
		}
		if view.State == "done" {
			break
		}
		if view.State == "failed" || view.State == "canceled" {
			t.Fatalf("job ended %s: %s", view.State, view.Error)
		}
		if time.Now().After(deadline) {
			t.Fatalf("job still %s after 2m", view.State)
		}
		time.Sleep(200 * time.Millisecond)
	}

	// Fetch the served result bytes.
	r, err = http.Get(base + "/v1/jobs/" + submitted.ID + "/result")
	if err != nil {
		t.Fatalf("result: %v", err)
	}
	served, err := readAll(r, http.StatusOK)
	if err != nil {
		t.Fatalf("result: %v", err)
	}

	// The golden: the exact same campaign through the public library API,
	// serialized by the service's canonical marshaller.
	start := time.Date(2024, 9, 1, 0, 0, 0, 0, time.UTC)
	hk, _ := sinet.SiteByCode("HK")
	direct, err := sinet.RunPassive(sinet.PassiveConfig{
		Seed:           7,
		Start:          start,
		Days:           1,
		Sites:          []sinet.Site{hk},
		Constellations: []sinet.Constellation{sinet.FOSSA(start)},
	})
	if err != nil {
		t.Fatalf("direct run: %v", err)
	}
	golden, err := service.MarshalResult(direct)
	if err != nil {
		t.Fatalf("marshal direct result: %v", err)
	}
	if !bytes.Equal(served, golden) {
		t.Fatalf("served result (%d bytes) differs from direct library run (%d bytes)", len(served), len(golden))
	}
	t.Logf("served result byte-identical to direct run (%d bytes)", len(served))
}

// decodeInto reads r's body, requiring wantStatus, and decodes it into v.
func decodeInto(r *http.Response, wantStatus int, v any) error {
	data, err := readAll(r, wantStatus)
	if err != nil {
		return err
	}
	return json.Unmarshal(data, v)
}

// readAll reads and closes r's body, requiring wantStatus.
func readAll(r *http.Response, wantStatus int) ([]byte, error) {
	defer r.Body.Close()
	data, err := io.ReadAll(r.Body)
	if err != nil {
		return nil, err
	}
	if r.StatusCode != wantStatus {
		return nil, fmt.Errorf("status %d (want %d): %s", r.StatusCode, wantStatus, bytes.TrimSpace(data))
	}
	return data, nil
}
