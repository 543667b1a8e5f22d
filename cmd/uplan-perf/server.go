package main

import (
	"bufio"
	"context"
	"errors"
	"fmt"
	"net/http"
	"os"
	"os/exec"
	"strings"
	"syscall"
	"time"

	"uplan/internal/serve/serveclient"
)

// serverProc is one running uplan-serve subprocess.
type serverProc struct {
	cmd  *exec.Cmd
	base string // http://127.0.0.1:port
	// stdoutDone closes once the server's stdout reaches EOF; Wait must
	// not run before that.
	stdoutDone chan struct{}
	stopped    bool
}

// startServer launches bin with its default flags on a loopback port the
// kernel picks, and returns once the server has printed its address.
func startServer(bin string) (*serverProc, error) {
	cmd := exec.Command(bin, "-addr", "127.0.0.1:0")
	cmd.Stderr = os.Stderr
	dieWithParent(cmd)
	out, err := cmd.StdoutPipe()
	if err != nil {
		return nil, err
	}
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("start %s: %w", bin, err)
	}
	s := &serverProc{cmd: cmd, stdoutDone: make(chan struct{})}
	addr := make(chan string, 1)
	go func() {
		defer close(s.stdoutDone)
		sc := bufio.NewScanner(out)
		sent := false
		for sc.Scan() {
			if _, a, ok := strings.Cut(sc.Text(), "listening on "); ok && !sent {
				addr <- strings.TrimSpace(a)
				sent = true
			}
		}
		if !sent {
			close(addr)
		}
	}()
	select {
	case a, ok := <-addr:
		if !ok {
			s.kill()
			return nil, errors.New("uplan-serve exited before listening")
		}
		s.base = "http://" + a
		return s, nil
	case <-time.After(30 * time.Second):
		s.kill()
		return nil, errors.New("uplan-serve did not report its address within 30s")
	}
}

// bootServer starts a server and times it to its first successful
// convert of probe: the set-up cost a user of the service pays.
func bootServer(bin string, probe record) (*serverProc, time.Duration, error) {
	start := time.Now()
	s, err := startServer(bin)
	if err != nil {
		return nil, 0, err
	}
	c := newClient(s.base)
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	for {
		_, err := c.Convert(ctx, probe.Dialect, probe.Serialized)
		if err == nil {
			return s, time.Since(start), nil
		}
		if ctx.Err() != nil {
			s.kill()
			return nil, 0, fmt.Errorf("first convert: %w", err)
		}
		time.Sleep(time.Millisecond)
	}
}

// newClient is one closed-loop client: one keep-alive connection and no
// retries, so a 429 or 503 is a failed request rather than hidden latency.
func newClient(base string) *serveclient.Client {
	tr := &http.Transport{MaxIdleConnsPerHost: 1, MaxConnsPerHost: 1}
	return serveclient.New(base, serveclient.Options{
		HTTPClient: &http.Client{Transport: tr, Timeout: 30 * time.Second},
		MaxRetries: -1,
	})
}

// stop drains the server with SIGTERM and waits for it. It returns the
// server's peak resident set in MB, read just before the signal, and an
// error unless the drain exited 0.
func (s *serverProc) stop() (float64, error) {
	rss, rssErr := peakRSSMB(s.cmd.Process.Pid)
	if err := s.cmd.Process.Signal(syscall.SIGTERM); err != nil {
		s.kill()
		return 0, fmt.Errorf("signal uplan-serve: %w", err)
	}
	select {
	case <-s.stdoutDone:
	case <-time.After(30 * time.Second):
		s.kill()
		return 0, errors.New("uplan-serve did not drain within 30s")
	}
	s.stopped = true
	if err := s.cmd.Wait(); err != nil {
		return rss, fmt.Errorf("uplan-serve drain: %w", err)
	}
	return rss, rssErr
}

// kill ends a server that failed mid-run, and waits for it. Safe to defer
// after a successful stop.
func (s *serverProc) kill() {
	if s.stopped {
		return
	}
	s.stopped = true
	_ = s.cmd.Process.Kill() // the process may have exited already
	<-s.stdoutDone
	_ = s.cmd.Wait() // a killed process reports its signal; nothing to act on
}

// buildServer compiles cmd/uplan-serve from the repository at root into
// dir, untimed, so every run measures the program as it is in the tree.
func buildServer(root, dir string) (string, error) {
	bin := dir + "/uplan-serve"
	cmd := exec.Command("go", "build", "-o", bin, "./cmd/uplan-serve")
	cmd.Dir = root
	cmd.Stdout = os.Stderr
	cmd.Stderr = os.Stderr
	if err := cmd.Run(); err != nil {
		return "", fmt.Errorf("build uplan-serve: %w", err)
	}
	return bin, nil
}
