package core

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"slices"
	"strings"
)

// Fingerprint returns a content-addressed key for the artifacts this
// configuration produces: the SHA-256 of a canonical, versioned
// encoding of every artifact-affecting field. Two configs with equal
// fingerprints produce byte-identical artifacts, so the fingerprint is
// safe to use as a cache key and as the basis for HTTP ETags.
//
// Config.Workers is deliberately excluded: the determinism contract
// (DESIGN.md "Pipeline concurrency & determinism", enforced by
// TestRunWorkerCountEquivalence and TestRunShardBatchEquivalence)
// guarantees artifacts are byte-identical for any worker count, so
// runs differing only in it must share a cache slot.
// Config.TraceScale does change artifacts, but only when > 1; the
// unscaled encoding omits the field entirely so every fingerprint from
// before the field existed stays valid.
//
// The encoding is versioned ("rcpt-cfg/1") so a future field addition
// that changes artifacts can bump the prefix and invalidate every
// previously derived key at once.
func (c Config) Fingerprint() string {
	var b strings.Builder
	b.WriteString("rcpt-cfg/1\n")
	for _, f := range configFields {
		b.WriteString(f.encode(c))
	}
	sum := sha256.Sum256([]byte(b.String()))
	return hex.EncodeToString(sum[:])
}

// configField is one artifact-affecting Config field and its encoding.
type configField struct {
	name   string
	encode func(Config) string
}

// configFields encodes each artifact-affecting field as the
// "name=value\n" line Fingerprint writes for it, in Fingerprint's
// order. Render keys (renderkey.go) take their config subsets from the
// same lines, so a field hashes the same way in both.
var configFields = []configField{
	{"seed", func(c Config) string { return fmt.Sprintf("seed=%d\n", c.Seed) }},
	{"n2011", func(c Config) string { return fmt.Sprintf("n2011=%d\n", c.N2011) }},
	{"n2024", func(c Config) string { return fmt.Sprintf("n2024=%d\n", c.N2024) }},
	{"traceyears", func(c Config) string {
		years := make([]string, len(c.TraceYears))
		for i, y := range c.TraceYears {
			years[i] = fmt.Sprint(y)
		}
		return "traceyears=" + strings.Join(years, ",") + "\n"
	}},
	{"simyear", func(c Config) string { return fmt.Sprintf("simyear=%d\n", c.SimYear) }},
	{"policy", func(c Config) string { return fmt.Sprintf("policy=%d\n", int(c.Policy)) }},
	{"rake", func(c Config) string { return fmt.Sprintf("rake=%t\n", c.Rake) }},
	{"paneln", func(c Config) string { return fmt.Sprintf("paneln=%d\n", c.PanelN) }},
	// %b prints the exact bit pattern, so two floats hash equal iff they
	// are the same value (no decimal rounding ambiguity).
	{"noiserate", func(c Config) string { return fmt.Sprintf("noiserate=%b\n", c.NoiseRate) }},
	{"tracescale", func(c Config) string {
		if c.TraceScale > 1 {
			return fmt.Sprintf("tracescale=%d\n", c.TraceScale)
		}
		return ""
	}},
}

// configSubset encodes the named fields of c, in the order given, as
// Fingerprint encodes them.
func configSubset(c Config, names []string) (string, error) {
	var b strings.Builder
	for _, name := range names {
		i := slices.IndexFunc(configFields, func(f configField) bool { return f.name == name })
		if i < 0 {
			return "", fmt.Errorf("core: unknown config field %q", name)
		}
		b.WriteString(configFields[i].encode(c))
	}
	return b.String(), nil
}
