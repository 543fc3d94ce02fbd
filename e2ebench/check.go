package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"strconv"
)

// expected holds the outputs a run is checked against: the digests kept
// beside the benchmark, keyed by workload and seed, and the S2 golden
// table the repository's own tests pin at seed 42.
type expected struct {
	digests  map[string]map[string]string
	s2Golden []byte
}

const (
	s2GoldenPath = "testdata/scenario/S2_table_seed42.txt"
	s2GoldenSeed = 42
)

func loadExpected(o options) (*expected, error) {
	exp := &expected{digests: map[string]map[string]string{}}
	data, err := os.ReadFile(o.digests)
	switch {
	case err == nil:
		if err := json.Unmarshal(data, &exp.digests); err != nil {
			return nil, fmt.Errorf("%s: %w", o.digests, err)
		}
	case errors.Is(err, fs.ErrNotExist) && o.record:
	default:
		return nil, err
	}
	if exp.s2Golden, err = os.ReadFile(filepath.Join(o.root, s2GoldenPath)); err != nil {
		return nil, err
	}
	return exp, nil
}

func digest(s string) string {
	sum := sha256.Sum256([]byte(s))
	return hex.EncodeToString(sum[:])
}

// digestKey is the seed a workload's expected digest is stored under.
func digestKey(workload string, seed uint64) string {
	if workload == "catalog" {
		seed = catalogSeed // the benchmark seed only orders the experiments
	}
	return strconv.FormatUint(seed, 10)
}

// mismatch compares one repetition's output with what is expected for
// the workload and seed. known is false when nothing is stored.
func (e *expected) mismatch(workload string, seed uint64, output string) (msg string, known bool) {
	if workload == "s2_district" && seed == s2GoldenSeed {
		if output != string(e.s2Golden) {
			return "table differs from " + s2GoldenPath, true
		}
		return "", true
	}
	want, ok := e.digests[workload][digestKey(workload, seed)]
	if !ok {
		return "", false
	}
	if got := digest(output); got != want {
		return fmt.Sprintf("output digest %s, want %s", got[:16], want[:min(16, len(want))]), true
	}
	return "", true
}

// checkRep validates repetition i as soon as it ends: its verdicts and
// output errors, the expected output, and the determinism sentinel, which
// requires every repetition at one seed to give the output and the work
// counts of repetition 0. A repetition with any failure counts as one
// failed operation, as does every non-2xx response. The output is then
// replaced by its digest, so earlier repetitions add little to a later
// one's live heap.
func checkRep(workload string, o options, exp *expected, i int, r, first *repOut, res *result, out io.Writer) {
	bad := append([]string(nil), r.failures...)
	msg, known := exp.mismatch(workload, o.seed, r.output)
	if msg != "" && !o.record {
		bad = append(bad, msg)
	}
	if i == 0 && !known && !o.record {
		fmt.Fprintf(out, "no expected output stored for %s seed %d: checked verdicts and determinism only\n", workload, o.seed)
	}
	r.digest, r.output = digest(r.output), ""
	if i > 0 {
		if r.digest != first.digest {
			bad = append(bad, "determinism: output differs from repetition 0")
		}
		for _, n := range countNames {
			if r.counts[n] != first.counts[n] {
				bad = append(bad, fmt.Sprintf("determinism: %s = %v, repetition 0 had %v", n, r.counts[n], first.counts[n]))
			}
		}
	}
	for _, b := range bad {
		fmt.Fprintf(out, "FAIL repetition %d: %s\n", i, b)
	}
	res.Attempted += 1 + r.ops
	res.Failed += r.opsFailed
	if len(bad) > 0 {
		res.Failed++
	}
}

// recordDigest stores a checked output's digest for the workload and seed.
func recordDigest(o options, workload, sum string) error {
	exp, err := loadExpected(o)
	if err != nil {
		return err
	}
	if exp.digests[workload] == nil {
		exp.digests[workload] = map[string]string{}
	}
	exp.digests[workload][digestKey(workload, o.seed)] = sum
	data, err := json.MarshalIndent(exp.digests, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(o.digests, append(data, '\n'), 0o644)
}
