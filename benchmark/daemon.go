package main

import (
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"
)

// buildBlitzd compiles ./cmd/blitzd into root/.bench_build and returns the
// binary's path.
func buildBlitzd(root string) (string, error) {
	bin := filepath.Join(root, ".bench_build", "blitzd")
	cmd := exec.Command("go", "build", "-o", bin, "./cmd/blitzd")
	cmd.Dir = root
	if out, err := cmd.CombinedOutput(); err != nil {
		return "", fmt.Errorf("build blitzd: %v\n%s", err, out)
	}
	return bin, nil
}

// daemon is one blitzd subprocess.
type daemon struct {
	cmd  *exec.Cmd
	base string
	out  *syncBuffer
	// exited is closed once the process has been waited for.
	exited chan struct{}
}

type syncBuffer struct {
	mu sync.Mutex
	b  strings.Builder
}

func (b *syncBuffer) Write(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.b.Write(p)
}

func (b *syncBuffer) String() string {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.b.String()
}

// startDaemon launches blitzd on an ephemeral loopback port and returns once
// /readyz answers 200.
func startDaemon(bin string, args []string, client *http.Client) (*daemon, error) {
	d := &daemon{out: &syncBuffer{}, exited: make(chan struct{})}
	d.cmd = exec.Command(bin, append([]string{"-addr", "127.0.0.1:0"}, args...)...)
	d.cmd.Stdout = d.out
	d.cmd.Stderr = d.out
	// The daemon must not outlive the benchmark, however the benchmark ends.
	d.cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	if err := d.cmd.Start(); err != nil {
		return nil, fmt.Errorf("start blitzd: %w", err)
	}
	go func() {
		_ = d.cmd.Wait() // its exit status says nothing a run reports
		close(d.exited)
	}()
	const marker = " listening on "
	deadline := time.Now().Add(10 * time.Second)
	for !strings.Contains(d.out.String(), marker) {
		select {
		case <-d.exited:
			return nil, fmt.Errorf("blitzd exited before listening:\n%s", d.out.String())
		case <-time.After(time.Millisecond):
		}
		if time.Now().After(deadline) {
			d.stop()
			return nil, fmt.Errorf("blitzd never listened:\n%s", d.out.String())
		}
	}
	s := d.out.String()
	rest := s[strings.Index(s, marker)+len(marker):]
	d.base = "http://" + strings.TrimSpace(strings.SplitN(rest, "\n", 2)[0])
	for {
		resp, err := client.Get(d.base + "/readyz")
		if err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return d, nil
			}
		}
		if time.Now().After(deadline) {
			d.stop()
			return nil, fmt.Errorf("blitzd never became ready: %v", err)
		}
		time.Sleep(time.Millisecond)
	}
}

// stop drains the daemon with SIGTERM, kills it if the drain takes longer
// than ten seconds, and waits for it to exit.
func (d *daemon) stop() {
	// A signal fails only when the process has already exited, which the
	// select sees.
	_ = d.cmd.Process.Signal(syscall.SIGTERM)
	select {
	case <-d.exited:
	case <-time.After(10 * time.Second):
		_ = d.cmd.Process.Kill()
		<-d.exited
	}
}

// clockTick is the kernel's USER_HZ, the unit of utime and stime in
// /proc/<pid>/stat; 100 on every mainstream Linux architecture.
const clockTick = 10 * time.Millisecond

// cpuTime reads the daemon's user plus system CPU time, all threads.
func (d *daemon) cpuTime() (time.Duration, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", d.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	// Fields after the parenthesized command name start at field 3 (state);
	// utime and stime are fields 14 and 15.
	s := string(b)
	f := strings.Fields(s[strings.LastIndexByte(s, ')')+1:])
	if len(f) < 13 {
		return 0, fmt.Errorf("short /proc stat: %q", s)
	}
	utime, err1 := strconv.ParseInt(f[11], 10, 64)
	stime, err2 := strconv.ParseInt(f[12], 10, 64)
	if err := errors.Join(err1, err2); err != nil {
		return 0, err
	}
	return time.Duration(utime+stime) * clockTick, nil
}

// rss reads the daemon's resident set size (VmRSS) in bytes.
func (d *daemon) rss() (uint64, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", d.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(b), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmRSS:"); ok {
			kb, err := strconv.ParseUint(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 10, 64)
			return kb << 10, err
		}
	}
	return 0, errors.New("no VmRSS in /proc status")
}

// sampleRSS reads the daemon's resident set size every interval until stop
// is closed, then delivers the samples, in MiB, on the returned channel.
func (d *daemon) sampleRSS(interval time.Duration, stop <-chan struct{}) <-chan []float64 {
	out := make(chan []float64, 1)
	go func() {
		var mib []float64
		tick := time.NewTicker(interval)
		defer tick.Stop()
		for {
			select {
			case <-stop:
				out <- mib
				return
			case <-tick.C:
				if b, err := d.rss(); err == nil {
					mib = append(mib, float64(b)/(1<<20))
				}
			}
		}
	}()
	return out
}

// vars fetches /debug/vars and keeps its numeric entries.
func (d *daemon) vars(client *http.Client) (map[string]float64, error) {
	resp, err := client.Get(d.base + "/debug/vars")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	var raw map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&raw); err != nil {
		return nil, fmt.Errorf("decode /debug/vars: %w", err)
	}
	out := make(map[string]float64, len(raw))
	for k, v := range raw {
		if f, ok := v.(float64); ok {
			out[k] = f
		}
	}
	return out, nil
}
