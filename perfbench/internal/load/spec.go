// Package load is the client half of the store benchmark: workload
// specifications, the seeded op schedule, generated file contents with
// their digests, exact percentiles, and the open- and closed-loop
// HTTP runners that drive the benchmark server.
package load

import "fmt"

// Settings every workload shares.
const (
	// BlockSize is the stores' block size.
	BlockSize = 16 << 10
	// ZipfS is the exponent of the Zipf law reads pick files by.
	ZipfS = 1.2
	// RangeFrac of reads are ranged GETs of RangeBytes at a
	// chunk-aligned offset; the rest are whole-file GETs.
	RangeFrac  = 0.3
	RangeBytes = 4 << 10
	// TranscodeTo is the code maintenance rounds move files to and
	// back from.
	TranscodeTo = "rs-14-10"
	// SetupReps is how many times an untraced run sets up (creates the
	// shards and preloads); setup_s reports the nearest-rank median,
	// the second fastest.
	SetupReps = 4
)

// Spec is one workload: the store geometry the server creates, the
// preloaded data set, the foreground op mix and the fixed offered rate
// of its open-loop phase, and the shape of its maintenance rounds.
type Spec struct {
	Name string

	// Store geometry, passed to serve.CreateShards with BlockSize.
	Code         string
	ExtentBlocks int
	Shards       int

	// Preloaded data set: Files files with lengths spread over
	// [MinBytes, MaxBytes] (see Sizes).
	Files              int
	MinBytes, MaxBytes int

	// Foreground mix: reads as described at ZipfS and RangeFrac, plus
	// WriteFrac of ops in put→get→delete triples on fresh private
	// names whose bodies come from a pool of WriteBodies bodies of
	// WriteBytes each.
	WriteFrac   float64
	WriteBodies int
	WriteBytes  int

	// Rate is the fixed offered rate of the open-loop phase in ops
	// per second. A triple counts as three ops.
	Rate float64

	// Phase shares of the run's measuring time: the open-loop phase,
	// the saturation phase, and the maintenance rounds. The first
	// maintenance round always runs; later ones run while their share
	// lasts.
	FixedShare, SatShare, MaintShare float64

	// Kill lists the nodes every maintenance round kills on every
	// shard. The set is fixed, not drawn from the seed: which nodes die
	// decides how many reads heal and how much repair has to do.
	Kill []int
	// TranscodeFiles is how many of the most popular files a
	// maintenance round transcodes; 0 means every file.
	TranscodeFiles int
}

// Workloads lists the benchmark's workloads in run order.
var Workloads = []Spec{
	{
		Name: "read-zipf", Code: "pentagon", ExtentBlocks: 9, Shards: 4,
		Files: 128, MinBytes: 16 << 10, MaxBytes: 256 << 10,
		Rate:       250,
		FixedShare: 0.6, SatShare: 0.2, MaintShare: 0.35,
		Kill: []int{0, 1}, TranscodeFiles: 32,
	},
	{
		Name: "write-mix", Code: "pentagon", ExtentBlocks: 9, Shards: 4,
		Files: 128, MinBytes: 16 << 10, MaxBytes: 256 << 10,
		WriteFrac: 0.2, WriteBodies: 32, WriteBytes: 64 << 10,
		Rate:       250,
		FixedShare: 0.6, SatShare: 0.2, MaintShare: 0.35,
		Kill: []int{0, 1}, TranscodeFiles: 32,
	},
	{
		Name: "maintenance", Code: "heptagon-local", ExtentBlocks: 40, Shards: 2,
		Files: 24, MinBytes: 1200 << 10, MaxBytes: 2000 << 10,
		Rate:       100,
		FixedShare: 0.3, SatShare: 0.2, MaintShare: 0.6,
		// Two nodes of heptagon A and the global-parity node. Three
		// nodes of one heptagon would make every ranged read of a block
		// lost with them fail: the code's read planner answers "use
		// full decode" for that pattern and the store's ranged-read
		// path has no full-decode fallback.
		Kill: []int{0, 1, 14},
	},
}

// Lookup returns the named workload.
func Lookup(name string) (Spec, error) {
	for _, s := range Workloads {
		if s.Name == name {
			return s, nil
		}
	}
	names := make([]string, len(Workloads))
	for i, s := range Workloads {
		names[i] = s.Name
	}
	return Spec{}, fmt.Errorf("unknown workload %q (have %v)", name, names)
}
