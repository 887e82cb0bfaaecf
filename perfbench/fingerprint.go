package main

import (
	"bufio"
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
)

// host records where a result was measured and what code it measured.
type host struct {
	GoVersion  string         `json:"go_version"`
	GOOS       string         `json:"goos"`
	GOARCH     string         `json:"goarch"`
	GOMAXPROCS int            `json:"gomaxprocs"`
	NumCPU     int            `json:"nproc"`
	CPUModel   string         `json:"cpu_model"`
	Kernel     string         `json:"kernel"`
	Network    string         `json:"network"`
	LOC        map[string]int `json:"non_test_loc"` // per internal/ module; reported, never gated
}

// fingerprint reads the host and counts non-test, non-blank Go lines per
// module under root/internal.
func fingerprint(root string) (host, error) {
	h := host{
		GoVersion: runtime.Version(), GOOS: runtime.GOOS, GOARCH: runtime.GOARCH,
		GOMAXPROCS: runtime.GOMAXPROCS(0), NumCPU: runtime.NumCPU(),
		CPUModel: "unknown", Kernel: "unknown",
		Network: "loopback UDP on 127.0.0.1; no real link was crossed",
		LOC:     map[string]int{},
	}
	if b, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, l := range strings.Split(string(b), "\n") {
			if k, v, ok := strings.Cut(l, ":"); ok && strings.TrimSpace(k) == "model name" {
				h.CPUModel = strings.TrimSpace(v)
				break
			}
		}
	}
	if b, err := os.ReadFile("/proc/sys/kernel/osrelease"); err == nil {
		h.Kernel = strings.TrimSpace(string(b))
	}
	files, err := filepath.Glob(filepath.Join(root, "internal", "*", "*.go"))
	if err != nil {
		return h, err
	}
	if len(files) == 0 {
		return h, fmt.Errorf("no Go sources under %s", filepath.Join(root, "internal"))
	}
	for _, f := range files {
		if strings.HasSuffix(f, "_test.go") {
			continue
		}
		b, err := os.ReadFile(f)
		if err != nil {
			return h, err
		}
		n := 0
		sc := bufio.NewScanner(bytes.NewReader(b))
		sc.Buffer(make([]byte, 0, 64<<10), 1<<20)
		for sc.Scan() {
			if strings.TrimSpace(sc.Text()) != "" {
				n++
			}
		}
		h.LOC[filepath.Base(filepath.Dir(f))] += n
	}
	return h, nil
}

// lines renders the fingerprint for the human report.
func (h host) lines() []string {
	out := []string{
		fmt.Sprintf("host: %s %s/%s GOMAXPROCS=%d nproc=%d cpu=%q kernel=%s",
			h.GoVersion, h.GOOS, h.GOARCH, h.GOMAXPROCS, h.NumCPU, h.CPUModel, h.Kernel),
		"network: " + h.Network,
	}
	mods := make([]string, 0, len(h.LOC))
	total := 0
	for m, n := range h.LOC {
		mods = append(mods, fmt.Sprintf("%s=%d", m, n))
		total += n
	}
	sort.Strings(mods)
	return append(out, fmt.Sprintf("non-test Go LOC (internal/, ungated): total=%d %s", total, strings.Join(mods, " ")))
}
