package main

import (
	"os/exec"
	"runtime"
	"strings"
	"syscall"
)

// processCPUSeconds is the user+system CPU time this process has used.
func processCPUSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	tv := func(t syscall.Timeval) float64 { return float64(t.Sec) + float64(t.Usec)/1e6 }
	return tv(ru.Utime) + tv(ru.Stime)
}

// hostMeta describes where a result was measured. Two result files compare
// only when NumCPU, seed and scales agree.
type hostMeta struct {
	NumCPU     int    `json:"num_cpu"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	GitSHA     string `json:"git_sha"`
	GitDirty   bool   `json:"git_dirty"`
}

func readHostMeta() hostMeta {
	m := hostMeta{NumCPU: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0), GoVersion: runtime.Version(), GitSHA: "unknown"}
	if out, err := exec.Command("git", "rev-parse", "HEAD").Output(); err == nil {
		m.GitSHA = strings.TrimSpace(string(out))
		st, _ := exec.Command("git", "status", "--porcelain").Output()
		m.GitDirty = len(st) > 0
	}
	return m
}
