package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/exec"
	"strconv"
	"strings"
	"time"

	"repro/internal/obs"
	"repro/perfbench/internal/load"
)

// server is a running benchmark server process, driven over HTTP.
type server struct {
	cmd  *exec.Cmd
	base string
	ctl  *http.Client
}

// startServer launches this executable in server mode over root and
// waits until it listens. With create it first creates the shards of
// spec's geometry; with spans non-empty it traces and writes its spans
// there on exit.
func startServer(root string, spec load.Spec, create bool, spans string) (*server, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	args := []string{"serve", "-root", root}
	if create {
		args = append(args, "-create", "-code", spec.Code,
			"-bs", strconv.Itoa(load.BlockSize), "-ext", strconv.Itoa(spec.ExtentBlocks),
			"-shards", strconv.Itoa(spec.Shards))
	}
	if spans != "" {
		args = append(args, "-spans", spans)
	}
	cmd := exec.Command(exe, args...)
	cmd.Stderr = os.Stderr
	out, err := cmd.StdoutPipe()
	if err != nil {
		return nil, err
	}
	if err := cmd.Start(); err != nil {
		return nil, err
	}
	line, err := bufio.NewReader(out).ReadString('\n')
	addr, ok := strings.CutPrefix(strings.TrimSpace(line), "LISTEN ")
	if err != nil || !ok {
		cmd.Process.Kill()
		cmd.Wait()
		return nil, fmt.Errorf("benchmark server did not start (read %q: %v)", line, err)
	}
	return &server{cmd: cmd, base: "http://" + addr, ctl: &http.Client{Timeout: 120 * time.Second}}, nil
}

// stop asks the server to quit and waits for it, killing it if it has
// not exited within a minute.
func (s *server) stop() error {
	done := make(chan error, 1)
	go func() { done <- s.cmd.Wait() }()
	var reqErr error
	if resp, err := s.ctl.Post(s.base+"/bench/quit", "", nil); err != nil {
		reqErr = err
	} else {
		resp.Body.Close()
	}
	var err error
	select {
	case err = <-done:
	case <-time.After(time.Minute):
		s.cmd.Process.Kill()
		err = fmt.Errorf("benchmark server did not exit: killed (quit request: %v)", <-done)
	}
	s.ctl.CloseIdleConnections()
	if err != nil {
		return err
	}
	return reqErr
}

// call sends a control request and decodes a JSON answer into v
// (when v is non-nil).
func (s *server) call(method, path string, v any) error {
	req, err := http.NewRequest(method, s.base+path, nil)
	if err != nil {
		return err
	}
	resp, err := s.ctl.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return fmt.Errorf("%s %s: %w", method, path, err)
	}
	if resp.StatusCode/100 != 2 {
		return fmt.Errorf("%s %s: status %d: %s", method, path, resp.StatusCode, bytes.TrimSpace(body))
	}
	if v == nil {
		return nil
	}
	return json.Unmarshal(body, v)
}

func (s *server) proc() (Proc, error) {
	var p Proc
	err := s.call(http.MethodGet, "/bench/proc", &p)
	return p, err
}

func (s *server) stats() (obs.Snapshot, error) {
	var snap obs.Snapshot
	err := s.call(http.MethodGet, "/stats", &snap)
	return snap, err
}

func (s *server) files() ([]string, error) {
	var names []string
	err := s.call(http.MethodGet, "/files", &names)
	return names, err
}

func nodeQuery(nodes []int) string {
	q := make([]string, len(nodes))
	for i, v := range nodes {
		q[i] = "node=" + strconv.Itoa(v)
	}
	return strings.Join(q, "&")
}
