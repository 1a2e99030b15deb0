package main

import (
	"encoding/json"
	"errors"
	"fmt"
	"hash/fnv"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"sort"

	"pilotrf"
)

// opLog counts attempted and failed ops and holds the determinism
// digests. An op fails when any of its checks fails; the run goes on.
//
// Digests are keyed by op. The first digest seen for a key is the
// reference every later op with that key must match, so a mismatch
// between passes, or between a traced and an untraced pass, fails the
// op. The references persist per workload and seed under the work
// directory, so later runs of the same seed are held to them too.
type opLog struct {
	attempted, failed int
	digests           map[string]string
	path              string
	stored            bool
	failures          []string
}

func newOpLog(path string) (*opLog, error) {
	l := &opLog{digests: map[string]string{}, path: path}
	raw, err := os.ReadFile(path)
	switch {
	case errors.Is(err, fs.ErrNotExist):
		return l, nil
	case err != nil:
		return nil, err
	}
	if err := json.Unmarshal(raw, &l.digests); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	l.stored = true
	return l, nil
}

// op records one op with its determinism digest ("" for none) and the
// outcome of each of its checks.
func (l *opLog) op(key, digest string, checks ...error) {
	l.attempted++
	if digest != "" {
		if want, ok := l.digests[key]; !ok {
			l.digests[key] = digest
		} else if want != digest {
			checks = append(checks, fmt.Errorf("stats digest %s, want %s", digest, want))
		}
	}
	for _, err := range checks {
		if err != nil {
			l.failed++
			if len(l.failures) < 10 {
				l.failures = append(l.failures, fmt.Sprintf("%s: %v", key, err))
			}
			return
		}
	}
}

// save persists the digests the first time a clean run of this
// workload and seed completes.
func (l *opLog) save() error {
	if l.stored || l.failed > 0 {
		return nil
	}
	raw, err := json.MarshalIndent(l.digests, "", " ")
	if err != nil {
		return err
	}
	if err := os.MkdirAll(filepath.Dir(l.path), 0o755); err != nil {
		return err
	}
	tmp := fmt.Sprintf("%s.%d", l.path, os.Getpid())
	if err := os.WriteFile(tmp, raw, 0o644); err != nil {
		return err
	}
	return os.Rename(tmp, l.path)
}

// summary prints the op counts and the first failures.
func (l *opLog) summary(w io.Writer, workload string, plain, traced int) {
	fmt.Fprintf(w, "perfbench: %s: %d untraced + %d traced passes, %d ops, %d failed\n",
		workload, plain, traced, l.attempted, l.failed)
	for _, f := range l.failures {
		fmt.Fprintln(w, "perfbench: FAIL", f)
	}
}

// resultDigest fingerprints a run's simulated statistics: per kernel,
// the cycles, warp instructions, register accesses, and partition split.
func resultDigest(r pilotrf.Result) string {
	h := fnv.New64a()
	for _, k := range r.Stats.Kernels {
		fmt.Fprintf(h, "%s %d %d %d %d %v\n", k.Name, k.Cycles, k.WarpInstrs, k.RegReads, k.RegWrites, k.PartAccesses)
	}
	return fmt.Sprintf("%016x", h.Sum64())
}

// bytesDigest fingerprints an encoded report.
func bytesDigest(b []byte) string {
	h := fnv.New64a()
	h.Write(b)
	return fmt.Sprintf("%016x", h.Sum64())
}

// median returns the middle value (the mean of the two middle values
// for an even count); 0 for none.
func median(xs []float64) float64 { return quantile(xs, 0.5) }

// quantile returns the q-quantile by linear interpolation between
// order statistics; 0 for none.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	i := int(pos)
	if i+1 >= len(s) {
		return s[len(s)-1]
	}
	return s[i] + (pos-float64(i))*(s[i+1]-s[i])
}

// ratio divides, reading 0 for an empty denominator.
func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}
