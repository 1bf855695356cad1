package main

import (
	"bufio"
	"errors"
	"fmt"
	"net/http"
	"os"
	"os/exec"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// serverProc is one `rulekit serve` subprocess.
type serverProc struct {
	cmd  *exec.Cmd
	base string
	done chan struct{} // closed once cmd.Wait returned
	err  error         // cmd.Wait's result, valid after done
}

// clockTicks is USER_HZ, the unit of utime/stime in /proc/<pid>/stat;
// it is 100 on every Linux ABI Go supports.
const clockTicks = 100

// startServer spawns `rulekit serve` on a free loopback port with the
// default flags plus extra, and waits until /readyz answers 200.
func startServer(bin string, extra ...string) (*serverProc, error) {
	args := append([]string{"serve", "-addr", "127.0.0.1:0"}, extra...)
	cmd := exec.Command(bin, args...)
	// The server must not outlive the benchmark, whatever kills it.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		return nil, err
	}
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("start %s: %w", bin, err)
	}
	p := &serverProc{cmd: cmd, done: make(chan struct{})}
	addr := make(chan string, 1)
	go func() {
		sc := bufio.NewScanner(stdout)
		for sc.Scan() {
			if rest, ok := strings.CutPrefix(sc.Text(), "listening on "); ok {
				addr <- rest
			}
		}
		// Wait must follow the last read from the pipe.
		p.err = cmd.Wait()
		close(p.done)
	}()
	select {
	case p.base = <-addr:
	case <-p.done:
		return nil, fmt.Errorf("server exited before listening: %v", p.err)
	case <-time.After(30 * time.Second):
		p.kill()
		return nil, errors.New("server did not report its address within 30s")
	}
	if err := p.awaitReady(); err != nil {
		p.kill()
		return nil, err
	}
	return p, nil
}

func (p *serverProc) awaitReady() error {
	hc := &http.Client{Timeout: time.Second, Transport: &http.Transport{Proxy: nil}}
	defer hc.CloseIdleConnections()
	deadline := time.Now().Add(30 * time.Second)
	for time.Now().Before(deadline) {
		resp, err := hc.Get(p.base + "/readyz")
		if err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return nil
			}
		}
		select {
		case <-p.done:
			return fmt.Errorf("server exited before ready: %v", p.err)
		case <-time.After(5 * time.Millisecond):
		}
	}
	return errors.New("server not ready within 30s")
}

// kill stops the server at once and waits for it to exit.
func (p *serverProc) kill() {
	_ = p.cmd.Process.Kill() // fails only when the process is already gone
	<-p.done
}

// terminate sends SIGTERM and waits for the graceful drain; the server
// must exit 0 within the timeout.
func (p *serverProc) terminate(timeout time.Duration) error {
	if err := p.cmd.Process.Signal(syscall.SIGTERM); err != nil {
		return err
	}
	select {
	case <-p.done:
		return p.err
	case <-time.After(timeout):
		p.kill()
		return fmt.Errorf("server did not drain within %v", timeout)
	}
}

// cpuTime is the server's user+system CPU time so far.
func (p *serverProc) cpuTime() (time.Duration, error) {
	blob, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", p.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	// The command name (field 2) may hold spaces; fields count from the
	// closing parenthesis. utime and stime are fields 14 and 15.
	s := string(blob)
	fields := strings.Fields(s[strings.LastIndexByte(s, ')')+1:])
	if len(fields) < 13 {
		return 0, fmt.Errorf("short /proc stat line %q", s)
	}
	var ticks int64
	for _, f := range fields[11:13] {
		n, err := strconv.ParseInt(f, 10, 64)
		if err != nil {
			return 0, fmt.Errorf("parsing /proc stat: %w", err)
		}
		ticks += n
	}
	return time.Duration(ticks) * time.Second / clockTicks, nil
}

// hostTicks reads the machine's cumulative CPU ticks and the part of
// them a hypervisor gave to other guests (steal). Stolen time stretches
// every latency without showing in the server's CPU time.
func hostTicks() (steal, total int64, err error) {
	blob, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, 0, err
	}
	line, _, _ := strings.Cut(string(blob), "\n")
	fields := strings.Fields(line)
	// cpu user nice system idle iowait irq softirq steal [guest guest_nice]:
	// guest time is already counted in user and nice.
	if len(fields) < 9 || fields[0] != "cpu" {
		return 0, 0, fmt.Errorf("unexpected /proc/stat line %q", line)
	}
	for i, f := range fields[1:9] {
		n, err := strconv.ParseInt(f, 10, 64)
		if err != nil {
			return 0, 0, fmt.Errorf("parsing /proc/stat: %w", err)
		}
		total += n
		if i == 7 {
			steal = n
		}
	}
	return steal, total, nil
}

// peakRSS is the server's resident-set high-water mark (VmHWM) in MiB.
func (p *serverProc) peakRSS() (float64, error) {
	blob, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", p.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(blob), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			if err != nil {
				return 0, fmt.Errorf("parsing VmHWM: %w", err)
			}
			return kb / 1024, nil
		}
	}
	return 0, errors.New("no VmHWM in /proc status")
}
