package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io/fs"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strings"
)

// buildDir is where run.sh puts the binary, relative to the repository
// root the benchmark runs from; WAL directories live under it too.
const buildDir = ".bench_build"

// prepareDataRoot creates this process's directory for WAL data. Each
// round removes its own log; main removes the root before it exits.
func prepareDataRoot() (string, error) {
	dir := filepath.Join(buildDir, fmt.Sprintf("data-%d", os.Getpid()))
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", fmt.Errorf("creating data directory: %w", err)
	}
	return dir, nil
}

// printStamp prints what the result depends on besides the code under
// test, as one JSON line.
func printStamp(s spec, seed int64, trace int, dataRoot string) {
	st := map[string]any{
		"workload":   s.name,
		"seed":       seed,
		"trace":      trace,
		"nproc":      runtime.NumCPU(),
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"go":         runtime.Version(),
		"commit":     commit(),
	}
	if s.name == "served-durable" || trace == 1 {
		st["fsync"] = fmt.Sprintf("WithSyncEvery(%d)", servedSyncEvery)
		st["data_dir"] = dataRoot
	}
	line, _ := json.Marshal(st)
	fmt.Printf("stamp %s\n", line)
}

// commit names the code measured: the git revision when run from a git
// work tree, otherwise a digest of the Go sources and module files.
func commit() string {
	if _, err := os.Stat(".git"); err == nil {
		if out, err := exec.Command("git", "rev-parse", "HEAD").Output(); err == nil {
			return strings.TrimSpace(string(out))
		}
	}
	h := sha256.New()
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() && (d.Name() == buildDir || strings.HasPrefix(d.Name(), ".git")) {
			return filepath.SkipDir
		}
		if d.IsDir() || !(strings.HasSuffix(path, ".go") || d.Name() == "go.mod") {
			return nil
		}
		b, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		fmt.Fprintf(h, "%s\x00%d\x00", path, len(b))
		h.Write(b)
		return nil
	})
	if err != nil {
		return "unknown"
	}
	return "source-sha256:" + hex.EncodeToString(h.Sum(nil))[:16]
}
