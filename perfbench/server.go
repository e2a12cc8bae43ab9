package main

import (
	"bytes"
	"context"
	"fmt"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"syscall"
	"time"

	"mega"
	"mega/internal/httpfront"
)

const (
	// startTimeout bounds one megaserve start (window build included).
	startTimeout = 60 * time.Second
	// stopTimeout bounds the SIGTERM drain; megaserve's own -drain is 10s.
	stopTimeout = 30 * time.Second
)

// server is one megaserve process under test.
type server struct {
	cmd    *exec.Cmd
	url    string
	stderr bytes.Buffer // read only after done is closed
	done   chan struct{}
	aux    *httpfront.Client // /readyz, /stats, /metrics; never the query path
}

// startServer execs megaserve with an ephemeral loopback port plus the
// workload's flags, under MEGA_AUDIT=1, and returns once /readyz answers
// 200. The returned duration runs from exec to that first 200.
func startServer(bin string, flags []string, dir string) (*server, time.Duration, error) {
	addrFile := filepath.Join(dir, "addr")
	os.Remove(addrFile)
	args := append([]string{"-listen", "127.0.0.1:0", "-addr-file", addrFile}, flags...)
	s := &server{done: make(chan struct{})}
	s.cmd = exec.Command(filepath.Join(bin, "megaserve"), args...)
	s.cmd.Env = append(os.Environ(), "MEGA_AUDIT=1")
	s.cmd.Stdout = &s.stderr
	s.cmd.Stderr = &s.stderr
	t0 := time.Now()
	if err := s.cmd.Start(); err != nil {
		return nil, 0, err
	}
	go func() {
		s.cmd.Wait()
		close(s.done)
	}()
	deadline := t0.Add(startTimeout)
	fail := func(format string, args ...any) (*server, time.Duration, error) {
		s.kill()
		return nil, 0, fmt.Errorf("megaserve %s: %s\n%s", strings.Join(flags, " "), fmt.Sprintf(format, args...), s.stderr.String())
	}
	var addr string
	for {
		if b, err := os.ReadFile(addrFile); err == nil && bytes.HasSuffix(b, []byte("\n")) {
			addr = strings.TrimSpace(string(b))
			break
		}
		select {
		case <-s.done:
			return fail("exited during start-up")
		default:
		}
		if time.Now().After(deadline) {
			return fail("no address within %s", startTimeout)
		}
		time.Sleep(time.Millisecond)
	}
	s.url = "http://" + addr
	aux, err := httpfront.NewClient(httpfront.ClientConfig{
		BaseURL:    s.url,
		MaxRetries: -1,
		HTTPClient: &http.Client{Transport: &http.Transport{}, Timeout: 30 * time.Second},
	})
	if err != nil {
		return fail("%v", err)
	}
	s.aux = aux
	for !aux.Ready(context.Background()) {
		if time.Now().After(deadline) {
			return fail("not ready within %s", startTimeout)
		}
		time.Sleep(time.Millisecond)
	}
	return s, time.Since(t0), nil
}

// stop sends SIGTERM, waits for the drain, and returns the exit code and
// the process's peak RSS in MiB.
func (s *server) stop() (code int, rssMB float64, err error) {
	s.aux.Close()
	s.cmd.Process.Signal(syscall.SIGTERM)
	select {
	case <-s.done:
	case <-time.After(stopTimeout):
		s.kill()
		return -1, 0, fmt.Errorf("megaserve did not exit within %s of SIGTERM", stopTimeout)
	}
	ps := s.cmd.ProcessState
	if ru, ok := ps.SysUsage().(*syscall.Rusage); ok {
		rssMB = float64(ru.Maxrss) / 1024 // Linux reports KiB
	}
	return ps.ExitCode(), rssMB, nil
}

// kill ends the process if it still runs and waits for it.
func (s *server) kill() {
	select {
	case <-s.done:
		return
	default:
	}
	s.cmd.Process.Kill()
	<-s.done
}

func (s *server) stats() (*httpfront.StatsReply, error) {
	return s.aux.Stats(context.Background())
}

func (s *server) metrics() (*mega.MetricsSnapshot, error) {
	return s.aux.MetricsSnapshot(context.Background())
}

// counter sums the snapshot's counters named name whose labels include
// every key=value pair in labels.
func counter(snap *mega.MetricsSnapshot, name string, labels ...string) int64 {
	var n int64
next:
	for _, c := range snap.Counters {
		if c.Name != name {
			continue
		}
		for i := 0; i+1 < len(labels); i += 2 {
			if c.Labels[labels[i]] != labels[i+1] {
				continue next
			}
		}
		n += c.Value
	}
	return n
}
