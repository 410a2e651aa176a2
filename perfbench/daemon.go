package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"syscall"
	"time"
)

// daemon is one running tbaad process.
type daemon struct {
	cmd  *exec.Cmd
	base string // http://host:port
	dir  string
}

// startDaemon starts tbaad on a kernel-assigned loopback port with
// default flags and waits until /readyz answers.
func startDaemon(bin, dir string) (*daemon, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	portFile := filepath.Join(dir, "port")
	os.Remove(portFile)
	cmd := exec.Command(bin, "-addr", "127.0.0.1:0", "-portfile", portFile)
	cmd.SysProcAttr = daemonAttr()
	cmd.Stdout = io.Discard
	cmd.Stderr = os.Stderr
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("start tbaad: %w", err)
	}
	d := &daemon{cmd: cmd, dir: dir}
	deadline := time.Now().Add(30 * time.Second)
	for {
		if time.Now().After(deadline) {
			d.stop()
			return nil, fmt.Errorf("tbaad did not become ready")
		}
		if d.base == "" {
			if b, err := os.ReadFile(portFile); err == nil && bytes.HasSuffix(b, []byte("\n")) {
				d.base = "http://" + strings.TrimSpace(string(b))
			}
		}
		if d.base != "" {
			if resp, err := http.Get(d.base + "/readyz"); err == nil {
				io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
				if resp.StatusCode == http.StatusOK {
					return d, nil
				}
			}
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// stop asks tbaad to drain and waits for it to exit, killing it if it
// does not within a few seconds.
func (d *daemon) stop() {
	if d == nil || d.cmd.Process == nil {
		return
	}
	d.cmd.Process.Signal(syscall.SIGTERM)
	done := make(chan struct{})
	go func() { d.cmd.Wait(); close(done) }()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		d.cmd.Process.Kill()
		<-done
	}
}

// newClient returns an HTTP client holding at most conns keep-alive
// connections to one host.
func newClient(conns int) *http.Client {
	return &http.Client{
		Timeout: 60 * time.Second,
		Transport: &http.Transport{
			MaxConnsPerHost:     conns,
			MaxIdleConnsPerHost: conns,
			DisableCompression:  true,
			IdleConnTimeout:     time.Minute,
		},
	}
}

// post sends a JSON request and decodes a 2xx JSON answer into out; any
// other status is an error carrying the body.
func post(c *http.Client, url string, in, out any) error {
	body, err := json.Marshal(in)
	if err != nil {
		return err
	}
	resp, err := c.Post(url, "application/json", bytes.NewReader(body))
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		return err
	}
	if resp.StatusCode/100 != 2 {
		return fmt.Errorf("%s: %s: %s", url, resp.Status, strings.TrimSpace(string(b)))
	}
	return json.Unmarshal(b, out)
}
