package core

// The Merkle stage cache: content-addressed reuse of individual stage
// outputs across runs. Every cacheable stage in the run DAG gets a key
//
//	SHA-256(stage name ‖ version tag ‖ config fields the stage reads
//	        ‖ sorted upstream stage keys)
//
// derived while buildGraph adds the stage specs (the spec list is in
// topological order, so upstream keys always exist by the time a
// dependent derives). The config-field subset is declared per stage
// below — narrower than Config.Fingerprint on purpose: TraceScale must
// invalidate trace stages but not cohort stages, Policy must invalidate
// only sim-policy, and execution knobs (Workers, Table) stay excluded
// exactly as the fingerprint contract demands. Upstream keys carry
// everything else: a change to any ancestor's inputs ripples down the
// Merkle chain, so there is no invalidation protocol at all — an entry
// under a key is valid forever.
//
// Every cached stage runs through one path (exec, in stage.go): load
// its key first; on a hit decode the stored payload into the artifact
// slots the stage body would have written and skip the body entirely
// (for stealable stages that includes the steal hook — a hit never
// leaves the process); on a miss run the body, then encode and store.
// Skipping bodies is safe under the repo's rng discipline: streams are
// split off the root *by name inside each body* and SplitNamed never
// advances the parent, so an unexecuted stage leaves every other
// stage's draws untouched.
//
// Failure contract ("faults cost latency, never bytes"): the store
// checksums payloads and deletes what fails verification; a payload
// that decodes as structurally invalid despite a valid checksum (codec
// skew) is deleted and the stage recomputes; encode errors skip the
// store and the run proceeds on the freshly computed values.

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"sort"
	"strings"

	"repro/internal/trace"
)

// StageCache is the store the run DAG consults for stage outputs. Keys
// are opaque hex digests; payloads are opaque bytes (see stagecodec.go
// for what goes in them). internal/stagecache provides the production
// implementation; the interface keeps core free of the storage detail
// and lets tests substitute simple fakes.
//
// Load returns a payload previously Stored under key. Store is
// best-effort (a cache may bound, shed, or spill as it likes). Delete
// removes an entry core found undecodable so it is never retried.
// Implementations must be safe for concurrent use — stages load and
// store in parallel.
type StageCache interface {
	Load(key string) ([]byte, bool)
	Store(key string, payload []byte)
	Delete(key string)
}

// stageKeyVersion versions the key derivation itself: bumping it
// orphans every previously derived key at once.
const stageKeyVersion = "rcpt-stage/1"

// Per-stage-kind version tags. Bump a tag when the stage's
// implementation or payload encoding changes meaning, so stale entries
// miss instead of decoding into wrong values.
const (
	verCohort    = "cohort/1"
	verPanel     = "panel/1"
	verRake      = "rake/1"
	verTrace     = "trace/1"
	verModlog    = "modlog/1"
	verModAgg    = "modagg/1"
	verSimPolicy = "sim-policy/3"
	verSimFCFS   = "sim-fcfs/2"
	verSimCons   = "sim-conservative/2"
	verSweep     = "sweep/1"
)

// deriveKey computes one Merkle content key: a stage's (domain
// stageKeyVersion) or an experiment render's (renderKeyVersion, see
// renderkey.go). inputs is the canonical config-field encoding ("k=v\n"
// lines, same style as Config.Fingerprint); upstream is the keys of the
// cached stages it derives from, order-insensitive (sorted here).
func deriveKey(domain, name, version, inputs string, upstream []string) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s\nstage=%s\nversion=%s\ninputs=%s\n", domain, name, version, inputs)
	ups := append([]string(nil), upstream...)
	sort.Strings(ups)
	for _, u := range ups {
		fmt.Fprintf(&b, "up=%s\n", u)
	}
	sum := sha256.Sum256([]byte(b.String()))
	return hex.EncodeToString(sum[:])
}

// Per-stage config-field subsets. Each function encodes exactly the
// fields its stage kind reads — the invalidation matrix in DESIGN.md
// "Incremental recomputation" is the human-readable form of these.
// Float fields use %b for the same exact-bit-pattern reason as
// Config.Fingerprint.

// cohortInputs: a cohort stage reads the seed, its own cohort size, and
// the noise rate. The other cohort's size, trace config, policy, panel
// size — all irrelevant to its bytes.
func cohortInputs(cfg Config, n int) string {
	return fmt.Sprintf("seed=%d\nn=%d\nnoiserate=%b\n", cfg.Seed, n, cfg.NoiseRate)
}

// panelInputs: the panel reads the seed and its size.
func panelInputs(cfg Config) string {
	return fmt.Sprintf("seed=%d\npaneln=%d\n", cfg.Seed, cfg.PanelN)
}

// seedInputs: a (year, rep) trace stage and a telemetry year read only
// the seed — year and replica are in the stage name, and raising
// TraceScale adds stages without renaming existing ones, so a 10×-scale
// run reuses every replica a 5×-scale run already cached.
func seedInputs(cfg Config) string {
	return fmt.Sprintf("seed=%d\n", cfg.Seed)
}

// simPolicyInputs: the policy simulation reads the policy; its trace
// inputs ride in through upstream keys. The FCFS and conservative
// baselines hardcode their policies, so their inputs are empty.
func simPolicyInputs(cfg Config) string {
	return fmt.Sprintf("policy=%d\n", int(cfg.Policy))
}

// sweepInputs: a T16 sweep half reads the seed and its own cohort's
// size. The replicate count and seed stride are constants its version
// tag covers.
func sweepInputs(cfg Config, n int) string {
	return fmt.Sprintf("seed=%d\nn=%d\n", cfg.Seed, n)
}

// jobsCodec is the trace stages' payload codec.
var jobsCodec = tableCodec(payloadJobs, trace.JobCodec{})

// EncodeTraceStagePayload frames one trace table as the payload the
// trace stages store and peers answer steals with — exported with
// DecodeTraceStagePayload for callers that read those bytes directly.
func EncodeTraceStagePayload(tab trace.JobTable) ([]byte, error) { return jobsCodec.encode(tab) }

// DecodeTraceStagePayload reverses EncodeTraceStagePayload.
func DecodeTraceStagePayload(payload []byte) (trace.JobTable, error) {
	return jobsCodec.decode(payload)
}
