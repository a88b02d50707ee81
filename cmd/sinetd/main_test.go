package main

import (
	"io"
	"strings"
	"testing"
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
		err := run(tc.args, io.Discard)
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

func TestSmokeEndToEnd(t *testing.T) {
	if testing.Short() {
		t.Skip("runs a one-day campaign twice")
	}
	var out strings.Builder
	if err := run([]string{"-smoke"}, &out); err != nil {
		t.Fatalf("smoke failed: %v\noutput:\n%s", err, out.String())
	}
	if !strings.Contains(out.String(), "PASS") {
		t.Fatalf("smoke output missing PASS:\n%s", out.String())
	}
}
