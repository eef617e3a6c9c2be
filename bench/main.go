// Command bench is the repository's end-to-end benchmark. It boots
// in-process rcpt-serve servers on loopback listeners, drives one of four
// workloads against them over HTTP from one process, checks every
// answer, and prints the workload's metrics, last, as one JSON line.
// With -trace 1 it repeats the workload with spans recorded, probes each
// layer's public functions, writes the spans as a Chrome trace, and
// prints the per-layer metrics instead. See README.md.
//
//	go run . -workload browse -seed 3 -seconds 25 -trace 0
//
// Without -workload it runs all four, each in its own process.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"time"
)

func main() {
	name := flag.String("workload", "", "workload to run: cold-study, whatif-report, browse or ring; empty runs all four, each in its own process")
	seed := flag.Uint64("seed", 1, "workload seed: one seed always generates the same requests")
	seconds := flag.Int("seconds", 25, "length of the timed window in seconds")
	traced := flag.Int("trace", 0, "1 records spans, probes each layer, and prints per-layer metrics instead of end-to-end ones")
	out := flag.String("out", filepath.Join("bench", "out"), "directory traces are written to")
	flag.Parse()
	if *seconds < 1 || (*traced != 0 && *traced != 1) || flag.NArg() > 0 {
		flag.Usage()
		os.Exit(2)
	}
	ctx := context.Background()
	if *name == "" {
		os.Exit(runAll(ctx, *seed, *seconds, *traced, *out))
	}
	w, ok := lookupWorkload(*name)
	if !ok {
		fmt.Fprintf(os.Stderr, "bench: unknown workload %q\n", *name)
		os.Exit(2)
	}
	res, err := runWorkload(ctx, w, *seed, defaultParams(time.Duration(*seconds)*time.Second), *traced == 1, *out, os.Stdout)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
	if _, err := fmt.Println(string(line)); err != nil {
		os.Exit(1)
	}
	if !res.Correct {
		os.Exit(1)
	}
}

// runAll runs every workload in a child process of its own, so each
// one's peak RSS and GC state are its alone, and returns the exit code.
func runAll(ctx context.Context, seed uint64, seconds, traced int, out string) int {
	exe, err := os.Executable()
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 1
	}
	code := 0
	for _, w := range workloads {
		cmd := exec.CommandContext(ctx, exe, "-workload", w.name, "-seed", strconv.FormatUint(seed, 10),
			"-seconds", strconv.Itoa(seconds), "-trace", strconv.Itoa(traced), "-out", out)
		cmd.Stdout, cmd.Stderr = os.Stdout, os.Stderr
		if err := cmd.Run(); err != nil {
			fmt.Fprintf(os.Stderr, "bench: %s: %v\n", w.name, err)
			code = 1
		}
	}
	return code
}

func lookupWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}
