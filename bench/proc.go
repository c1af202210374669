package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"os/exec"
	"os/signal"
	"strconv"
	"syscall"
	"time"
)

var (
	errDeadline    = errors.New("deadline exceeded: process group killed")
	errInterrupted = errors.New("interrupted: process group killed")
)

// supervisor runs child processes so that none can hang the benchmark
// or outlive it: each gets a process group of its own — its worker
// processes inherit it — which is killed at the deadline, on SIGINT or
// SIGTERM, and swept once more after the child has exited; and each
// holds a stdin pipe that reaches EOF if this process dies first.
type supervisor struct {
	sig         chan os.Signal
	interrupted bool
}

func newSupervisor() *supervisor {
	s := &supervisor{sig: make(chan os.Signal, 1)}
	signal.Notify(s.sig, os.Interrupt, syscall.SIGTERM)
	return s
}

func (s *supervisor) stop() { signal.Stop(s.sig) }

// run starts cmd and returns its standard output once it has exited or
// been killed.
func (s *supervisor) run(cmd *exec.Cmd, limit time.Duration) ([]byte, error) {
	if s.interrupted {
		return nil, errInterrupted
	}
	cmd.SysProcAttr = &syscall.SysProcAttr{Setpgid: true}
	stdin, err := cmd.StdinPipe()
	if err != nil {
		return nil, err
	}
	defer stdin.Close()
	var out bytes.Buffer
	cmd.Stdout, cmd.Stderr = &out, os.Stderr
	if err := cmd.Start(); err != nil {
		return nil, err
	}
	killGroup := func() {
		// ESRCH once the group is empty is the expected outcome.
		_ = syscall.Kill(-cmd.Process.Pid, syscall.SIGKILL)
	}
	done := make(chan error, 1)
	go func() { done <- cmd.Wait() }()
	timer := time.NewTimer(limit)
	defer timer.Stop()
	select {
	case err = <-done:
	case <-timer.C:
		killGroup()
		<-done
		err = errDeadline
	case <-s.sig:
		s.interrupted = true
		killGroup()
		<-done
		err = errInterrupted
	}
	killGroup()
	return out.Bytes(), err
}

// runChild re-executes this binary as the child for one workload (or
// the probes) and decodes what it printed.
func (s *supervisor) runChild(o options, workload string, limit time.Duration) (childResult, error) {
	exe, err := os.Executable()
	if err != nil {
		return childResult{}, err
	}
	trace := "0"
	if o.traced {
		trace = "1"
	}
	cmd := exec.Command(exe, "-workload", workload, "-seed", strconv.FormatInt(o.seed, 10),
		"-seconds", strconv.FormatFloat(o.seconds, 'g', -1, 64), "-trace", trace)
	cmd.Env = append(os.Environ(), envRole+"=child")
	out, err := s.run(cmd, limit)
	if err != nil {
		return childResult{}, fmt.Errorf("%w (allowed %v)", err, limit.Round(time.Second))
	}
	var res childResult
	if err := json.Unmarshal(out, &res); err != nil {
		return childResult{}, fmt.Errorf("decoding child output: %v", err)
	}
	return res, nil
}
