package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"os/exec"
	"runtime"
	"syscall"
	"time"
	"unsafe"
)

// child is this binary re-executed in a --role, spoken to with one JSON
// object per line on its standard input and output. Every read carries a
// deadline, so a child that hangs fails the phase instead of the run.
type child struct {
	name string
	cmd  *exec.Cmd
	in   *os.File // write end of the child's stdin
	out  *os.File // read end of the child's stdout
	r    *bufio.Reader
	done bool
}

// startChild starts this binary with args. A cpu >= 0 pins the child to
// that CPU, counted cyclically among the CPUs this process may use.
func startChild(name string, cpu int, args ...string) (*child, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	inR, inW, err := os.Pipe()
	if err != nil {
		return nil, err
	}
	outR, outW, err := os.Pipe()
	if err != nil {
		_ = inR.Close()
		_ = inW.Close()
		return nil, err
	}
	cmd := exec.Command(exe, args...)
	cmd.Stdin, cmd.Stdout, cmd.Stderr = inR, outW, os.Stderr
	// A child outlives neither this process nor its deadline.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	if cpu >= 0 {
		err = startPinned(cmd, cpu)
	} else {
		err = cmd.Start()
	}
	_ = inR.Close()
	_ = outW.Close()
	if err != nil {
		_ = inW.Close()
		_ = outR.Close()
		return nil, fmt.Errorf("start %s: %w", name, err)
	}
	return &child{name: name, cmd: cmd, in: inW, out: outR, r: bufio.NewReaderSize(outR, 1<<20)}, nil
}

// startPinned starts cmd on the given CPU. A child inherits the CPU
// affinity of the thread that forks it, so the calling thread is pinned
// for the fork and restored after it.
func startPinned(cmd *exec.Cmd, cpu int) error {
	runtime.LockOSThread()
	defer runtime.UnlockOSThread()
	all, err := getAffinity()
	if err != nil {
		return err
	}
	if err := setAffinity(all.nth(cpu)); err != nil {
		return err
	}
	err = cmd.Start()
	if rerr := setAffinity(all); rerr != nil {
		if err == nil { // the caller gets no child to stop
			_ = cmd.Process.Kill()
			_ = cmd.Wait()
		}
		return rerr
	}
	return err
}

// cpuSet is a Linux CPU affinity mask.
type cpuSet [16]uint64

// nth returns the set of only the n-th CPU of s, counted cyclically.
func (s cpuSet) nth(n int) cpuSet {
	var cpus []int
	for i := 0; i < len(s)*64; i++ {
		if s[i/64]&(1<<(i%64)) != 0 {
			cpus = append(cpus, i)
		}
	}
	var out cpuSet
	c := cpus[n%len(cpus)]
	out[c/64] = 1 << (c % 64)
	return out
}

// getAffinity and setAffinity read and set the calling thread's mask.
func getAffinity() (cpuSet, error) {
	var s cpuSet
	_, _, e := syscall.RawSyscall(syscall.SYS_SCHED_GETAFFINITY, 0, unsafe.Sizeof(s), uintptr(unsafe.Pointer(&s)))
	if e != 0 {
		return s, fmt.Errorf("sched_getaffinity: %w", e)
	}
	return s, nil
}

func setAffinity(s cpuSet) error {
	_, _, e := syscall.RawSyscall(syscall.SYS_SCHED_SETAFFINITY, 0, unsafe.Sizeof(s), uintptr(unsafe.Pointer(&s)))
	if e != 0 {
		return fmt.Errorf("sched_setaffinity: %w", e)
	}
	return nil
}

// send writes v as one line to the child's stdin.
func (c *child) send(v any) error {
	if err := writeLine(c.in, v); err != nil {
		return fmt.Errorf("%s: %w", c.name, err)
	}
	return nil
}

// recv reads the child's next line into v, failing at the deadline.
func (c *child) recv(v any, deadline time.Time) error {
	if err := c.out.SetReadDeadline(deadline); err != nil {
		return err
	}
	if err := readLine(c.r, v); err != nil {
		return fmt.Errorf("%s: %w", c.name, err)
	}
	return nil
}

// wait waits for a child that has said its last line to exit.
func (c *child) wait() error {
	if c.done {
		return nil
	}
	c.done = true
	err := c.cmd.Wait()
	_ = c.in.Close()
	_ = c.out.Close()
	if err != nil {
		return fmt.Errorf("%s: %w", c.name, err)
	}
	return nil
}

// kill stops the child if it still runs and waits for it.
func (c *child) kill() {
	if c.done {
		return
	}
	_ = c.cmd.Process.Kill()
	_ = c.wait()
}

func writeLine(w io.Writer, v any) error {
	b, err := json.Marshal(v)
	if err != nil {
		return err
	}
	_, err = w.Write(append(b, '\n'))
	return err
}

// readLine decodes the next line of r into v.
func readLine(r *bufio.Reader, v any) error {
	line, err := r.ReadBytes('\n')
	if err != nil {
		return fmt.Errorf("read: %w", err)
	}
	if err := json.Unmarshal(line, v); err != nil {
		return fmt.Errorf("decode %q: %w", line, err)
	}
	return nil
}
