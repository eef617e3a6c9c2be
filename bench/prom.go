package main

import (
	"fmt"
	"sort"
	"strconv"
	"strings"
)

// promSnapshot is one parsed Prometheus text exposition: each series,
// keyed by its name and label block exactly as exposed, to its value.
// Histogram _sum and _count lines are ordinary series here.
type promSnapshot map[string]float64

// parseProm parses the text exposition format (version 0.0.4) the
// servers' /metrics endpoint writes. Comment lines are skipped; sample
// lines carry no timestamps.
func parseProm(text string) (promSnapshot, error) {
	out := promSnapshot{}
	for n, line := range strings.Split(text, "\n") {
		line = strings.TrimSpace(line)
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		// Label values may hold spaces, so the value is what follows the
		// last one.
		cut := strings.LastIndexByte(line, ' ')
		if cut <= 0 {
			return nil, fmt.Errorf("metrics line %d: no value: %q", n+1, line)
		}
		v, err := strconv.ParseFloat(line[cut+1:], 64)
		if err != nil {
			return nil, fmt.Errorf("metrics line %d: %w", n+1, err)
		}
		out[line[:cut]] = v
	}
	return out, nil
}

// delta returns after minus before per series; a series absent before
// counts from zero.
func (after promSnapshot) delta(before promSnapshot) promSnapshot {
	out := promSnapshot{}
	for k, v := range after {
		out[k] = v - before[k]
	}
	return out
}

// add merges other into s by summing values series by series (the
// replicas of one ring).
func (s promSnapshot) add(other promSnapshot) {
	for k, v := range other {
		s[k] += v
	}
}

// sum adds, in series order, the values of every series of family name
// whose labels include each name=value pair in match.
func (s promSnapshot) sum(name string, match ...string) float64 {
	keys := make([]string, 0, len(s))
	for key := range s {
		keys = append(keys, key)
	}
	sort.Strings(keys)
	total := 0.0
	for _, key := range keys {
		series, labels, err := splitSeries(key)
		if err != nil || series != name {
			continue
		}
		ok := true
		for i := 0; i+1 < len(match); i += 2 {
			if labels[match[i]] != match[i+1] {
				ok = false
				break
			}
		}
		if ok {
			total += s[key]
		}
	}
	return total
}

// mean returns a histogram family's mean observation over the series
// whose labels include match: its _sum over its _count.
func (s promSnapshot) mean(name string, match ...string) float64 {
	return ratio(s.sum(name+"_sum", match...), s.sum(name+"_count", match...))
}

// splitSeries splits a series key into its family name and labels,
// undoing the exposition format's escapes in label values.
func splitSeries(key string) (string, map[string]string, error) {
	open := strings.IndexByte(key, '{')
	if open < 0 {
		return key, nil, nil
	}
	labels := map[string]string{}
	rest := key[open+1:]
	for {
		rest = strings.TrimPrefix(rest, ",")
		if strings.HasPrefix(rest, "}") {
			return key[:open], labels, nil
		}
		eq := strings.Index(rest, `="`)
		if eq <= 0 {
			return "", nil, fmt.Errorf("malformed labels in %q", key)
		}
		name := rest[:eq]
		var val strings.Builder
		i := eq + 2
		for ; i < len(rest) && rest[i] != '"'; i++ {
			if rest[i] == '\\' && i+1 < len(rest) {
				i++
				if rest[i] == 'n' {
					val.WriteByte('\n')
					continue
				}
			}
			val.WriteByte(rest[i])
		}
		if i >= len(rest) {
			return "", nil, fmt.Errorf("unterminated label value in %q", key)
		}
		labels[name] = val.String()
		rest = rest[i+1:]
	}
}
