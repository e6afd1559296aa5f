package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"strings"

	"repro/internal/loadgen"
)

// manifest says what produced a result: the workload and its full
// configuration, the seed and partition count, the source it was built
// from, and the Go toolchain and host CPUs it ran on.
type manifest struct {
	Workload   string         `json:"workload"`
	Traced     bool           `json:"traced"`
	Config     loadgen.Config `json:"config"`
	Seed       int64          `json:"seed"`
	Partitions int            `json:"partitions"`
	Commit     string         `json:"commit"`
	SourceHash string         `json:"source_sha256"`
	GoVersion  string         `json:"go_version"`
	GOMAXPROCS int            `json:"gomaxprocs"`
	NumCPU     int            `json:"nproc"`
}

func printManifest(w *workload, seed int64, traced bool, cfg loadgen.Config) error {
	src, err := sourceHash(".")
	if err != nil {
		return err
	}
	m := manifest{
		Workload:   w.name,
		Traced:     traced,
		Config:     cfg,
		Seed:       seed,
		Partitions: cfg.Partitions,
		Commit:     commit(),
		SourceHash: src,
		GoVersion:  runtime.Version(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		NumCPU:     runtime.NumCPU(),
	}
	b, err := json.Marshal(m)
	if err != nil {
		return err
	}
	fmt.Printf("manifest %s\n", b)
	return nil
}

// commit is the VCS revision the binary was stamped with, or "unknown"
// when it was built outside a repository.
func commit() string {
	bi, ok := debug.ReadBuildInfo()
	if !ok {
		return "unknown"
	}
	rev, dirty := "unknown", false
	for _, s := range bi.Settings {
		switch s.Key {
		case "vcs.revision":
			rev = s.Value
		case "vcs.modified":
			dirty = s.Value == "true"
		}
	}
	if dirty {
		rev += "+dirty"
	}
	return rev
}

// sourceHash digests every Go source and go.mod under root, skipping
// hidden directories, so a result names its source even where no
// commit is known.
func sourceHash(root string) (string, error) {
	var files []string
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() && path != root && strings.HasPrefix(d.Name(), ".") {
			return filepath.SkipDir
		}
		if !d.IsDir() && (strings.HasSuffix(path, ".go") || d.Name() == "go.mod") {
			files = append(files, path)
		}
		return nil
	})
	if err != nil {
		return "", err
	}
	sort.Strings(files)
	h := sha256.New()
	for _, f := range files {
		b, err := os.ReadFile(f)
		if err != nil {
			return "", err
		}
		fmt.Fprintf(h, "%s %d\n", filepath.ToSlash(f), len(b))
		h.Write(b)
	}
	return hex.EncodeToString(h.Sum(nil)), nil
}
