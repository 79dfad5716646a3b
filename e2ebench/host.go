package main

import (
	"bufio"
	"os"
	"os/exec"
	"runtime"
	"strings"
)

// hostInfo is the platform block every result carries, so numbers
// from different machines or commits are never compared blind.
type hostInfo struct {
	CPU        string `json:"cpu"`
	NumCPU     int    `json:"num_cpu"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	OS         string `json:"os"`
	Arch       string `json:"arch"`
	// Commit and Dirty describe the source tree the benchmark ran
	// from; "unknown" outside a git checkout.
	Commit string `json:"commit"`
	Dirty  string `json:"dirty"`
}

func probeHost() hostInfo {
	h := hostInfo{
		CPU: cpuModel(), NumCPU: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion: runtime.Version(), OS: runtime.GOOS, Arch: runtime.GOARCH,
		Commit: "unknown", Dirty: "unknown",
	}
	if _, err := os.Stat(".git"); err != nil {
		return h
	}
	if out, err := git("rev-parse", "HEAD"); err == nil {
		h.Commit = strings.TrimSpace(out)
	}
	if out, err := git("status", "--porcelain", "--untracked-files=no"); err == nil {
		h.Dirty = "false"
		if strings.TrimSpace(out) != "" {
			h.Dirty = "true"
		}
	}
	return h
}

func git(args ...string) (string, error) {
	cmd := exec.Command("git", args...)
	cmd.Env = append(os.Environ(), "GIT_OPTIONAL_LOCKS=0")
	out, err := cmd.Output()
	return string(out), err
}

func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}
