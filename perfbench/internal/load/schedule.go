package load

import (
	"fmt"
	"math/rand/v2"
	"time"
)

// Kind is what an op does. Schedule entries are KGet, KRange or
// KTriple; samples are KGet, KRange, KPut or KDelete.
type Kind uint8

// Op kinds.
const (
	KGet    Kind = iota // whole-file GET
	KRange              // ranged GET of RangeBytes
	KPut                // PUT of a private name
	KDelete             // DELETE of a private name
	KTriple             // put, then get, then delete one private name
	numKinds
)

var kindNames = [numKinds]string{"get", "range", "put", "delete", "triple"}

func (k Kind) String() string {
	if k < numKinds {
		return kindNames[k]
	}
	return fmt.Sprintf("kind%d", k)
}

// Op is one schedule entry.
type Op struct {
	// Due is when the op is to be sent, as an offset from the start of
	// its phase. Closed-loop phases ignore it.
	Due  time.Duration
	Kind Kind
	Name string
	// Off is a ranged read's chunk-aligned offset.
	Off int
	// Body indexes the write pool for a triple's put.
	Body int
}

// Schedule builds the op sequence of one phase from the seed: Poisson
// arrivals at the workload's offered rate (a triple counts as three
// ops) until dur has passed or maxOps entries exist, whichever is
// first. phase separates the sequences of a run's phases and names
// their private files, so no two phases share a private name.
func Schedule(spec Spec, files []File, seed uint64, phase int, dur time.Duration, maxOps int) []Op {
	rng := rand.New(rand.NewPCG(seed, 0x0b5e0000+uint64(phase)))
	// Rank r of the Zipf law is file r.
	zipf := rand.NewZipf(rng, ZipfS, 1, uint64(len(files)-1))
	// A fraction p of entries are triples, so triples are WriteFrac of
	// ops: 3p / (1 + 2p) = WriteFrac.
	p := spec.WriteFrac / (3 - 2*spec.WriteFrac)
	entryRate := spec.Rate / (1 + 2*p)
	var ops []Op
	var t float64
	private := 0
	for len(ops) < maxOps {
		t += rng.ExpFloat64() / entryRate
		due := time.Duration(t * float64(time.Second))
		if due >= dur {
			break
		}
		op := Op{Due: due}
		switch {
		case rng.Float64() < p:
			op.Kind = KTriple
			op.Name = privateName(phase, private)
			op.Body = rng.IntN(spec.WriteBodies)
			private++
		case rng.Float64() < RangeFrac:
			f := files[zipf.Uint64()]
			op.Kind = KRange
			op.Name = f.Name
			op.Off = ChunkSize * rng.IntN((f.Size+ChunkSize-1)/ChunkSize)
		default:
			op.Kind = KGet
			op.Name = files[zipf.Uint64()].Name
		}
		ops = append(ops, op)
	}
	return ops
}
