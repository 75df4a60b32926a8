package load

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"math"
	"math/rand/v2"
)

// ChunkSize is the granularity of a file's chunk digests. Ranged reads
// start on a chunk boundary so every byte they return is checked.
const ChunkSize = 4 << 10

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// Digest is what the generator keeps of a file after setup: its
// length, the CRC-32C of the whole body and of every ChunkSize chunk.
// Bodies are generated once and dropped; reads are checked against
// these instead of regenerating the expected bytes.
type Digest struct {
	Len    int
	Whole  uint32
	Chunks []uint32
}

// NewDigest digests a body.
func NewDigest(body []byte) Digest {
	d := Digest{Len: len(body), Whole: crc32.Checksum(body, castagnoli)}
	for off := 0; off < len(body); off += ChunkSize {
		end := min(off+ChunkSize, len(body))
		d.Chunks = append(d.Chunks, crc32.Checksum(body[off:end], castagnoli))
	}
	return d
}

// Check verifies got as the bytes of the file at offset off. A
// whole-file read is checked against the whole-body CRC; a range must
// start on a chunk boundary and end on one or at the end of the file,
// and is checked chunk by chunk.
func (d Digest) Check(got []byte, off int) error {
	if off == 0 && len(got) == d.Len {
		if crc32.Checksum(got, castagnoli) != d.Whole {
			return fmt.Errorf("body of %d bytes does not match its digest", d.Len)
		}
		return nil
	}
	end := off + len(got)
	if off%ChunkSize != 0 || off < 0 || end > d.Len || (end%ChunkSize != 0 && end != d.Len) {
		return fmt.Errorf("range [%d,%d) of a %d-byte file is not chunk-aligned", off, end, d.Len)
	}
	for c := off; c < end; c += ChunkSize {
		hi := min(c+ChunkSize, end)
		if crc32.Checksum(got[c-off:hi-off], castagnoli) != d.Chunks[c/ChunkSize] {
			return fmt.Errorf("range [%d,%d) does not match its digest at chunk %d", off, end, c/ChunkSize)
		}
	}
	return nil
}

// File is one preloaded file.
type File struct {
	Name string
	Size int
}

// DataSet is the preload set and the private-write body pool of one
// run, with their digests.
type DataSet struct {
	Files   []File
	Digests map[string]Digest
	// Bodies holds the preload bodies until setup is over; the caller
	// drops it then, and reads are checked against Digests alone.
	Bodies map[string][]byte
	// WriteBodies holds the bodies private puts send, reused across
	// names; WriteDigests[i] digests WriteBodies[i].
	WriteBodies  [][]byte
	WriteDigests []Digest
}

// preloadName names preload file i. Benchmark names hold no dots, so a
// block file's name is the part of its base name before the first dot.
func preloadName(i int) string { return fmt.Sprintf("r%05d", i) }

// privateName names the i-th private write of a run's phase.
func privateName(phase, i int) string { return fmt.Sprintf("w%d-%06d", phase, i) }

// Sizes returns the preload files, spread evenly over [MinBytes,
// MaxBytes] by a golden-ratio sequence. They do not depend on the
// seed: file i is also Zipf rank i, so every seed reads the same mix
// of sizes at the same popularity, and only contents, arrival times,
// offsets and the order of ops vary with it.
func Sizes(spec Spec) []File {
	files := make([]File, spec.Files)
	span := float64(spec.MaxBytes - spec.MinBytes + 1)
	for i := range files {
		_, frac := math.Modf(float64(i+1) * 0.6180339887498949)
		files[i] = File{Name: preloadName(i), Size: spec.MinBytes + int(frac*span)}
	}
	return files
}

// Body generates the contents of a named file from the seed.
func Body(seed uint64, name string, size int) []byte {
	var key [32]byte
	binary.LittleEndian.PutUint64(key[:], seed)
	copy(key[8:], name)
	body := make([]byte, size)
	rand.NewChaCha8(key).Read(body)
	return body
}

// NewDataSet draws sizes, generates every preload body and the write
// pool, and digests them all.
func NewDataSet(spec Spec, seed uint64) *DataSet {
	ds := &DataSet{Files: Sizes(spec), Digests: map[string]Digest{}, Bodies: map[string][]byte{}}
	for _, f := range ds.Files {
		b := Body(seed, f.Name, f.Size)
		ds.Bodies[f.Name] = b
		ds.Digests[f.Name] = NewDigest(b)
	}
	for i := 0; i < spec.WriteBodies; i++ {
		b := Body(seed, fmt.Sprintf("pool%d", i), spec.WriteBytes)
		ds.WriteBodies = append(ds.WriteBodies, b)
		ds.WriteDigests = append(ds.WriteDigests, NewDigest(b))
	}
	return ds
}

// UserBytes is the total length of the preload set.
func (ds *DataSet) UserBytes() int64 {
	var n int64
	for _, f := range ds.Files {
		n += int64(f.Size)
	}
	return n
}
