package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strings"
	"testing"
	"time"

	"github.com/sinet-io/sinet/internal/service"
)

// TestMain doubles the test binary as the daemon under test: with
// SINETD_E2E_CHILD set the process runs sinetd's real entrypoint instead
// of the test suite, so the crash test can SIGKILL an actual separate
// process rather than simulate one.
func TestMain(m *testing.M) {
	if os.Getenv("SINETD_E2E_CHILD") == "1" {
		if err := run(strings.Fields(os.Getenv("SINETD_E2E_ARGS"))); err != nil {
			fmt.Fprintln(os.Stderr, "child:", err)
			os.Exit(1)
		}
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// startDaemon re-execs the test binary as a sinetd child on a random port
// with the given journal directory, and parses the listen address out of
// its startup log line.
func startDaemon(t *testing.T, journalDir string) (*exec.Cmd, string) {
	t.Helper()
	return startProc(t, "-addr 127.0.0.1:0 -workers 1 -cache-bytes 0 -journal-dir "+journalDir)
}

// startProc re-execs the test binary as a sinetd child with the given
// argument string and parses the listen address out of its startup log
// line. The child's stderr keeps draining for its whole life so the
// daemon never blocks on a full pipe.
func startProc(t *testing.T, args string) (*exec.Cmd, string) {
	t.Helper()
	cmd := exec.Command(os.Args[0])
	cmd.Env = append(os.Environ(),
		"SINETD_E2E_CHILD=1",
		"SINETD_E2E_ARGS="+args,
	)
	stderr, err := cmd.StderrPipe()
	if err != nil {
		t.Fatal(err)
	}
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	addrCh := make(chan string, 1)
	go func() {
		scanner := bufio.NewScanner(stderr)
		for scanner.Scan() {
			line := scanner.Text()
			if !strings.Contains(line, "sinetd listening") {
				continue
			}
			for _, f := range strings.Fields(line) {
				if strings.HasPrefix(f, "addr=") {
					select {
					case addrCh <- strings.TrimPrefix(f, "addr="):
					default:
					}
				}
			}
		}
	}()
	select {
	case addr := <-addrCh:
		return cmd, addr
	case <-time.After(30 * time.Second):
		_ = cmd.Process.Kill()
		t.Fatal("daemon never logged its listen address")
		return nil, ""
	}
}

// crashSpec is the campaign the crash test serves: eight sites drive
// eight serial "contacts" units on the single worker, each a few hundred
// milliseconds of work, so the kill (fired the moment the first checkpoint
// hits the journal) lands with the campaign provably mid-flight — at least
// one unit checkpointed, several still to compute.
const crashSpec = `{
  "kind": "passive",
  "passive": {"seed": 7, "days": 30, "sites": ["HK", "SYD", "LDN", "PGH", "SH", "GZ", "NC", "YC"], "constellations": ["Tianqi"]}
}`

// TestCrashKillResumeServesByteIdenticalResult is the end-to-end crash
// drill: start a real sinetd, submit a campaign, SIGKILL the process after
// its first checkpoint hits the journal, restart on the same journal, and
// require the finished job — same ID, resumed from the checkpoint — to
// serve bytes identical to an uninterrupted direct library run.
func TestCrashKillResumeServesByteIdenticalResult(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns real daemons and runs a one-day campaign")
	}
	if runtime.GOOS == "windows" {
		t.Skip("relies on SIGKILL")
	}
	dir := t.TempDir()
	journalPath := filepath.Join(dir, "jobs.journal")

	cmd, addr := startDaemon(t, dir)
	resp, err := http.Post("http://"+addr+"/v1/jobs", "application/json", strings.NewReader(crashSpec))
	if err != nil {
		t.Fatal(err)
	}
	var submitted struct {
		ID string `json:"id"`
	}
	if err := decodeInto(resp, http.StatusAccepted, &submitted); err != nil {
		t.Fatal(err)
	}

	// Kill as soon as the first checkpoint is durably journaled: the job is
	// then provably incomplete with real progress to resume.
	deadline := time.Now().Add(3 * time.Minute)
	for {
		data, _ := os.ReadFile(journalPath)
		if bytes.Contains(data, []byte(`"op":"done"`)) {
			t.Fatal("campaign finished before the kill; crash window missed")
		}
		if bytes.Contains(data, []byte(`"op":"checkpoint"`)) {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("no checkpoint journaled within 3m")
		}
		time.Sleep(25 * time.Millisecond)
	}
	if err := cmd.Process.Kill(); err != nil {
		t.Fatal(err)
	}
	_ = cmd.Wait()

	cmd2, addr2 := startDaemon(t, dir)
	defer func() {
		_ = cmd2.Process.Kill()
		_ = cmd2.Wait()
	}()
	base := "http://" + addr2

	// The restarted daemon re-admits the job under its pre-crash ID and
	// finishes it.
	deadline = time.Now().Add(3 * time.Minute)
	for {
		r, err := http.Get(base + "/v1/jobs/" + submitted.ID)
		if err != nil {
			t.Fatal(err)
		}
		var view struct {
			State string `json:"state"`
			Error string `json:"error"`
		}
		if err := decodeInto(r, http.StatusOK, &view); err != nil {
			t.Fatal(err)
		}
		if view.State == "done" {
			break
		}
		if view.State == "failed" || view.State == "canceled" {
			t.Fatalf("resumed job ended %s: %s", view.State, view.Error)
		}
		if time.Now().After(deadline) {
			t.Fatalf("resumed job still %s after 3m", view.State)
		}
		time.Sleep(100 * time.Millisecond)
	}
	r, err := http.Get(base + "/v1/jobs/" + submitted.ID + "/result")
	if err != nil {
		t.Fatal(err)
	}
	served, err := readAll(r, http.StatusOK)
	if err != nil {
		t.Fatal(err)
	}

	// Golden: the same campaign straight through the library, no daemon, no
	// crash, no resume.
	var spec service.JobSpec
	if err := json.Unmarshal([]byte(crashSpec), &spec); err != nil {
		t.Fatal(err)
	}
	if err := spec.Normalize(); err != nil {
		t.Fatal(err)
	}
	direct, err := service.Run(context.Background(), &spec, service.RunContext{})
	if err != nil {
		t.Fatal(err)
	}
	golden, err := service.MarshalResult(direct)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(served, golden) {
		t.Fatalf("resumed result (%d bytes) differs from uninterrupted run (%d bytes)", len(served), len(golden))
	}

	// The recovery is visible on /metrics.
	mr, err := http.Get(base + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	metrics, err := readAll(mr, http.StatusOK)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Contains(metrics, []byte("sinet_journal_replayed_jobs_total 1")) {
		t.Fatal("metrics missing sinet_journal_replayed_jobs_total 1 after recovery")
	}
}
