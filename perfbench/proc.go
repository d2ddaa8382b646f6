package main

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"net"
	"os"
	"os/exec"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"

	"repro/internal/kvstore"
)

// child is one program process the run started: a kvserver or kvproxy.
type child struct {
	name   string
	addr   string // data port
	maddr  string // metrics port, "" when not scraped
	cmd    *exec.Cmd
	stdout bytes.Buffer
	stderr bytes.Buffer
	done   chan struct{} // closed once the process has exited
	err    error         // Wait's result, valid after done
}

// startChild runs bin with args. The child is killed if the harness
// dies first, so no process outlives a run.
func startChild(name, bin string, args ...string) (*child, error) {
	c := &child{name: name, done: make(chan struct{})}
	c.cmd = exec.Command(bin, args...)
	c.cmd.Stdout = &c.stdout
	c.cmd.Stderr = &c.stderr
	c.cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	if err := c.cmd.Start(); err != nil {
		return nil, fmt.Errorf("start %s: %w", name, err)
	}
	go func() {
		c.err = c.cmd.Wait()
		close(c.done)
	}()
	started.mu.Lock()
	started.list = append(started.list, c)
	started.mu.Unlock()
	return c, nil
}

// started lists every child of the run, for the watchdog.
var started struct {
	mu   sync.Mutex
	list []*child
}

// killAll ends every child still running and waits for each.
func killAll() {
	started.mu.Lock()
	defer started.mu.Unlock()
	for _, c := range started.list {
		c.kill()
	}
}

func (c *child) exited() bool {
	select {
	case <-c.done:
		return true
	default:
		return false
	}
}

// stop sends SIGINT and waits for the process to end, killing it after
// timeout. It returns the exit error (nil for status 0).
func (c *child) stop(timeout time.Duration) error {
	if !c.exited() {
		_ = c.cmd.Process.Signal(syscall.SIGINT) // already exiting if this fails
	}
	select {
	case <-c.done:
		return c.err
	case <-time.After(timeout):
		_ = c.cmd.Process.Kill()
		<-c.done
		return fmt.Errorf("%s did not exit within %v of SIGINT", c.name, timeout)
	}
}

// kill ends the process at once and waits for it; for error paths.
func (c *child) kill() {
	if !c.exited() {
		_ = c.cmd.Process.Kill()
	}
	<-c.done
}

// drainVerdict stops a kvserver and checks its leak verdict: exit
// status 0 and the report it prints must both say the drain returned
// the arena to its baseline.
func (c *child) drainVerdict() error {
	if err := c.stop(60 * time.Second); err != nil {
		return fmt.Errorf("%s: drain: %v; stderr: %s", c.name, err, lastLines(c.stderr.String(), 3))
	}
	var rep kvstore.DrainReport
	if err := jsonTail(c.stdout.Bytes(), &rep); err != nil {
		return fmt.Errorf("%s: drain report: %v", c.name, err)
	}
	if err := checkLeak(rep); err != nil {
		return fmt.Errorf("%s: %w", c.name, err)
	}
	return nil
}

func lastLines(s string, n int) string {
	lines := strings.Split(strings.TrimSpace(s), "\n")
	if len(lines) > n {
		lines = lines[len(lines)-n:]
	}
	return strings.Join(lines, " | ")
}

// freeAddr asks the kernel for an unused loopback port. Another process
// could take it before the child binds; the child then exits and the
// readiness poll reports it.
func freeAddr() (string, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	defer ln.Close()
	return ln.Addr().String(), nil
}

// dialReady polls addr until it accepts a connection, failing early if
// any of the watched processes exits. Readiness is the program's own
// work; the 1 ms between refused attempts bounds the overshoot.
func dialReady(addr string, watch []*child, timeout time.Duration) (*kvstore.Client, error) {
	deadline := time.Now().Add(timeout)
	for {
		cl, err := kvstore.Dial(addr, kvstore.WithDialTimeout(time.Second), kvstore.WithPipelineDepth(256))
		if err == nil {
			return cl, nil
		}
		for _, c := range watch {
			if c.exited() {
				return nil, fmt.Errorf("%s exited during start-up (%v): %s", c.name, c.err, lastLines(c.stderr.String(), 3))
			}
		}
		if time.Now().After(deadline) {
			return nil, fmt.Errorf("%s not accepting after %v: %w", addr, timeout, err)
		}
		time.Sleep(time.Millisecond)
	}
}

// clockTick is USER_HZ, the unit of /proc/<pid>/stat CPU times; Linux
// fixes it at 100 on every architecture the toolchain targets.
const clockTick = int64(time.Second / 100)

// procCPU returns a process's user+system CPU time. The kernel leaves
// time stolen by the hypervisor out of it.
func procCPU(pid int) (time.Duration, error) {
	b, err := os.ReadFile("/proc/" + strconv.Itoa(pid) + "/stat")
	if err != nil {
		return 0, err
	}
	// Fields after the parenthesised command name; utime and stime are
	// fields 14 and 15 of the whole line.
	s := string(b)
	i := strings.LastIndexByte(s, ')')
	if i < 0 {
		return 0, errors.New("malformed /proc stat")
	}
	f := strings.Fields(s[i+1:])
	if len(f) < 13 {
		return 0, errors.New("short /proc stat")
	}
	u, err1 := strconv.ParseInt(f[11], 10, 64)
	k, err2 := strconv.ParseInt(f[12], 10, 64)
	if err1 != nil || err2 != nil {
		return 0, errors.New("malformed /proc stat times")
	}
	return time.Duration((u + k) * clockTick), nil
}

// selfCPU returns the harness's own user+system CPU time.
func selfCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// peakRSS returns a process's resident high-water mark (VmHWM) in bytes;
// pid 0 means the harness itself.
func peakRSS(pid int) (int64, error) {
	p := "/proc/self/status"
	if pid != 0 {
		p = "/proc/" + strconv.Itoa(pid) + "/status"
	}
	f, err := os.Open(p)
	if err != nil {
		return 0, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			kb, err := strconv.ParseInt(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 10, 64)
			return kb << 10, err
		}
	}
	return 0, errors.New("no VmHWM in " + p)
}

// hostTicks is the machine-wide CPU time from /proc/stat: all of it and
// the part the hypervisor stole. Steal is a property of the neighbours,
// not the program: it picks the calm slots and is printed as context.
type hostTicks struct{ total, steal int64 }

func readHost() hostTicks {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return hostTicks{}
	}
	line, _, _ := strings.Cut(string(b), "\n")
	f := strings.Fields(line)
	var h hostTicks
	// cpu user nice system idle iowait irq softirq steal guest guest_nice;
	// guest time is already counted in user.
	for i := 1; i < len(f) && i <= 8; i++ {
		v, _ := strconv.ParseInt(f[i], 10, 64)
		h.total += v
		if i == 8 {
			h.steal = v
		}
	}
	return h
}

func stealShare(a, b hostTicks) float64 {
	if b.total <= a.total {
		return 0
	}
	return float64(b.steal-a.steal) / float64(b.total-a.total)
}
