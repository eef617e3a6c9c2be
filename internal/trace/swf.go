package trace

import (
	"bufio"
	"errors"
	"fmt"
	"io"
	"strconv"
	"strings"
)

// Standard Workload Format (SWF) support. SWF is the interchange format
// of the Parallel Workloads Archive: one job per line, 18 whitespace-
// separated integer fields, ';' comment lines, -1 for missing values.
// ExportSWF lets traces generated here drive external scheduler
// simulators; ImportSWF lets archive traces drive ours. The SWF schema
// carries less information than Job (no account, language, or GPUs), so
// the mapping is documented field-by-field below and the loss is made
// explicit in ImportSWF's synthesized fields.
//
// Field mapping (1-based SWF field -> Job):
//
//	 1 job number        <- ID
//	 2 submit time       <- Submit
//	 4 run time          <- Elapsed
//	 5 allocated procs   <- Cores()
//	 9 requested time    <- Limit
//	11 status            <- State (1 completed, 0 failed/timeout, 5 cancelled)
//	12 user id           <- numeric suffix of User
//	16 partition number  <- 1 cpu, 2 gpu, 3 other
//
// Remaining fields are -1 on export.

// ExportSWF writes jobs in SWF. Times are emitted relative to the trace
// epoch, matching this package's convention.
func ExportSWF(w io.Writer, jobs []Job) error {
	bw := bufio.NewWriter(w)
	if _, err := fmt.Fprintln(bw, "; SWF export from rcpt trace (partition 1=cpu 2=gpu)"); err != nil {
		return err
	}
	for _, j := range jobs {
		if err := j.Validate(); err != nil {
			return err
		}
		status := 1
		switch j.State {
		case StateFailed, StateTimeout:
			status = 0
		case StateCancelled:
			status = 5
		}
		part := 3
		switch j.Partition {
		case "cpu":
			part = 1
		case "gpu":
			part = 2
		}
		uid := userNumber(j.User)
		_, err := fmt.Fprintf(bw, "%d %d -1 %d %d -1 -1 %d %d -1 %d %d -1 -1 -1 %d -1 -1\n",
			j.ID, j.Submit, j.Elapsed, j.Cores(), j.Cores(), j.Limit, status, uid, part)
		if err != nil {
			return err
		}
	}
	return bw.Flush()
}

// userNumber extracts the numeric suffix of a user name ("u0042" → 42),
// or -1 when there is none.
func userNumber(user string) int {
	i := len(user)
	for i > 0 && user[i-1] >= '0' && user[i-1] <= '9' {
		i--
	}
	if i == len(user) {
		return -1
	}
	n, err := strconv.Atoi(user[i:])
	if err != nil {
		return -1
	}
	return n
}

// ImportSWF parses an SWF stream into jobs. Fields SWF does not carry
// are synthesized: Account "swf", Language "unknown", Year as given,
// CoresPer 1 (SWF reports flat processor counts), GPUs from the
// partition number only when gpuPartition matches (0 disables). Records
// with non-positive runtime or processors are skipped (archive traces
// use them for aborted submissions); malformed lines, and negative job
// numbers, which no Job ID can hold, are errors.
func ImportSWF(r io.Reader, year int, gpuPartition int) ([]Job, error) {
	if year <= 0 {
		return nil, fmt.Errorf("trace: ImportSWF year %d", year)
	}
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 1024*1024)
	var jobs []Job
	line := 0
	for sc.Scan() {
		line++
		text := strings.TrimSpace(sc.Text())
		if text == "" || strings.HasPrefix(text, ";") {
			continue
		}
		fields := strings.Fields(text)
		if len(fields) < 18 {
			return nil, fmt.Errorf("trace: swf line %d: %d fields, want 18", line, len(fields))
		}
		get := func(idx int) (int64, error) {
			v, err := strconv.ParseInt(fields[idx-1], 10, 64)
			if err != nil {
				return 0, fmt.Errorf("trace: swf line %d field %d: %w", line, idx, err)
			}
			return v, nil
		}
		id, err := get(1)
		if err != nil {
			return nil, err
		}
		if id < 0 {
			return nil, fmt.Errorf("trace: swf line %d: job number %d", line, id)
		}
		submit, err := get(2)
		if err != nil {
			return nil, err
		}
		runtime, err := get(4)
		if err != nil {
			return nil, err
		}
		procs, err := get(5)
		if err != nil {
			return nil, err
		}
		if procs <= 0 {
			procs, err = get(8) // fall back to requested processors
			if err != nil {
				return nil, err
			}
		}
		reqTime, err := get(9)
		if err != nil {
			return nil, err
		}
		status, err := get(11)
		if err != nil {
			return nil, err
		}
		uid, err := get(12)
		if err != nil {
			return nil, err
		}
		part, err := get(16)
		if err != nil {
			return nil, err
		}
		if runtime <= 0 || procs <= 0 || submit < 0 {
			continue // aborted or placeholder record
		}
		if reqTime < runtime {
			reqTime = runtime // archives contain under-requests; clamp
		}
		state := StateCompleted
		switch status {
		case 0:
			state = StateFailed
		case 5:
			state = StateCancelled
		}
		user := "swf-unknown"
		if uid >= 0 {
			user = fmt.Sprintf("u%04d", uid)
		}
		partition := "cpu"
		gpus := 0
		if gpuPartition > 0 && part == int64(gpuPartition) {
			partition = "gpu"
			gpus = 1 // SWF has no GPU counts; assume one per job
		}
		j := Job{
			ID:        uint64(id),
			User:      user,
			Account:   "swf",
			Partition: partition,
			Year:      year,
			Submit:    submit,
			Nodes:     int(procs),
			CoresPer:  1,
			GPUs:      gpus,
			Limit:     reqTime,
			Elapsed:   runtime,
			State:     state,
			Language:  "unknown",
		}
		if err := j.Validate(); err != nil {
			return nil, fmt.Errorf("trace: swf line %d: %w", line, err)
		}
		jobs = append(jobs, j)
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("trace: swf read: %w", err)
	}
	if line == 0 {
		return nil, errors.New("trace: empty swf input")
	}
	return jobs, nil
}
