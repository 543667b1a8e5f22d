package main

import (
	"errors"
	"fmt"
	"os"
	"os/exec"
	"runtime"
	"strconv"
	"strings"
	"syscall"
	"unsafe"
)

// dieWithParent makes the kernel kill cmd's process if this harness dies
// first, so an interrupted run leaves no server or campaign child behind.
func dieWithParent(cmd *exec.Cmd) {
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
}

// cpuSet is a sched_setaffinity mask: room for 1024 CPUs, the kernel's
// default cpu_set_t.
type cpuSet [16]uint64

func affinity(op uintptr, set *cpuSet) error {
	if _, _, e := syscall.RawSyscall(op, 0, unsafe.Sizeof(*set), uintptr(unsafe.Pointer(set))); e != 0 {
		return e
	}
	return nil
}

// pinToOneCPU re-executes the harness confined to the first CPU it may
// run on, unless it already is confined to one; the server and campaign
// children it starts inherit the confinement, and each Go runtime sizes
// GOMAXPROCS to it. On a virtual machine a request handed to a process on
// the other, idle virtual CPU waits for the host to wake that CPU, and
// how long depends on the host's load from other tenants: on the 2-core
// reference box serve-hot ran about 1.7x faster confined to one CPU than
// spread over two, with runnable threads waiting for a CPU 39% of the
// time. Confined, a reply wakes its reader on the CPU it runs on.
func pinToOneCPU() error {
	var set cpuSet
	if err := affinity(syscall.SYS_SCHED_GETAFFINITY, &set); err != nil {
		return fmt.Errorf("read CPU affinity: %w", err)
	}
	first, n := -1, 0
	for cpu := 0; cpu < 64*len(set); cpu++ {
		if set[cpu/64]&(1<<(cpu%64)) != 0 {
			if first < 0 {
				first = cpu
			}
			n++
		}
	}
	if n <= 1 {
		return nil
	}
	// Affinity belongs to a thread, and exec keeps the calling thread's.
	runtime.LockOSThread()
	one := cpuSet{}
	one[first/64] = 1 << (first % 64)
	if err := affinity(syscall.SYS_SCHED_SETAFFINITY, &one); err != nil {
		return fmt.Errorf("set CPU affinity: %w", err)
	}
	self, err := os.Executable()
	if err != nil {
		return err
	}
	return syscall.Exec(self, os.Args, os.Environ())
}

// peakRSSMB reads a live process's peak resident set, VmHWM, in MB. A
// child's rusage Maxrss would not do: os/exec starts the child sharing
// this process's memory until its exec, and Linux carries that into the
// child's maxrss, so it would report the harness's size instead.
func peakRSSMB(pid int) (float64, error) {
	data, err := os.ReadFile("/proc/" + strconv.Itoa(pid) + "/status")
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			if f := strings.Fields(rest); len(f) == 2 && f[1] == "kB" {
				kb, err := strconv.ParseFloat(f[0], 64)
				return kb / 1024, err
			}
		}
	}
	return 0, errors.New("no VmHWM line in /proc status")
}
