package hdfsraid

import (
	"errors"
	"fmt"
	"time"

	"repro/internal/core"
	"repro/internal/gf256"
)

// ReadBlock serves one data block of a stored file the way a degraded
// map task would: a live replica first, then — if both replicas are
// unreadable — through the code's partial-parity read plan, computing
// each payload from the blocks actually on disk at its source node.
// It returns the block bytes and the number of block-unit transfers
// the read cost (0 for a healthy replica read).
func (s *Store) ReadBlock(name string, stripe, symbol int) ([]byte, int, error) {
	dst := make([]byte, s.BlockSize())
	cost, err := s.ReadBlockInto(dst, name, stripe, symbol)
	if err != nil {
		return nil, 0, err
	}
	return dst, cost, nil
}

// BlockSize returns the store's block size.
func (s *Store) BlockSize() int { return s.blockSize }

// CodeName returns the store's default code name — the code new
// ingests land on. Immutable after open.
func (s *Store) CodeName() string { return s.codeName }

// ExtentBlocks returns the ingest extent size in data blocks (0 means
// whole-file extents). Immutable after open, so a peer store created
// with the same value ingests byte-identical layouts.
func (s *Store) ExtentBlocks() int { return s.extentBlocks }

// ReadBlockInto is ReadBlock into a caller-provided buffer of exactly
// BlockSize bytes — the steady-state read path, which together with the
// store's frame and payload pools moves block payloads with zero
// allocations per read. The stripe index is file-global: extent stripe
// sets are concatenated in extent order, so (stripe, symbol) addresses
// the same data block it did before the file grew an extent map.
func (s *Store) ReadBlockInto(dst []byte, name string, stripe, symbol int) (cost int, err error) {
	if s.obs != nil {
		start := time.Now()
		defer func() {
			if err != nil {
				return
			}
			elapsed := time.Since(start).Nanoseconds()
			if cost > 0 {
				// The block came through a partial-parity plan, not a
				// healthy replica: a degraded reconstruct.
				s.obs.readBlockDegr.Observe(elapsed)
				s.obs.readsDegraded.Inc()
			} else {
				s.obs.readBlockIntact.Observe(elapsed)
			}
			s.obs.bytesOut.Add(int64(len(dst)))
		}()
	}
	// The heat hooks fire once the checks below pass, from a defer
	// registered before the unlock's, so they run after it.
	touched := -1
	defer func() {
		if touched >= 0 {
			s.touch(name, touched, touched)
		}
	}()
	s.mu.RLock()
	defer s.mu.RUnlock()
	if len(dst) != s.blockSize {
		return 0, fmt.Errorf("hdfsraid: ReadBlockInto needs a %d-byte buffer, got %d", s.blockSize, len(dst))
	}
	fi, ok := s.manifest.Files[name]
	if !ok {
		return 0, fmt.Errorf("hdfsraid: %w %q", ErrNotFound, name)
	}
	if stripe < 0 || stripe >= fi.Stripes {
		return 0, fmt.Errorf("hdfsraid: stripe %d out of range", stripe)
	}
	// Locate the extent holding this file stripe. The bounds check
	// turns a summary Stripes field exceeding the extents' total (a
	// hand-edited or corrupt manifest) into an error, not a panic.
	ext, local := 0, stripe
	for ext < len(fi.Extents) && local >= fi.Extents[ext].Stripes {
		local -= fi.Extents[ext].Stripes
		ext++
	}
	if ext == len(fi.Extents) {
		return 0, fmt.Errorf("hdfsraid: stripe %d beyond %q's extents", stripe, name)
	}
	if s.pendingSwapLocked(name, ext) {
		return 0, fmt.Errorf("hdfsraid: %q extent %d is mid-swap in the journal; run Recover", name, ext)
	}
	cc, err := s.codecByName(fi.Extents[ext].Code)
	if err != nil {
		return 0, err
	}
	if symbol < 0 || symbol >= cc.code.DataSymbols() {
		return 0, fmt.Errorf("hdfsraid: symbol %d is not a data symbol", symbol)
	}
	touched = ext
	return s.readDataBlockInto(dst, cc, name, fi, ext, local, symbol, true)
}

// readDataBlockInto is the lock-free core of ReadBlockInto: deliver one
// data block (extent-local stripe coordinates) into dst (exactly
// BlockSize bytes) through a healthy replica or the code's partial-
// parity read plan, without touching the manifest lock or the heat
// hook. Failure patterns the code cannot plan a read around fall back
// to a full-stripe decode. It is shared by the public block read and
// the streaming transcode source, whose workers call it concurrently while a sibling
// move may hold the manifest lock. When heal is set, replicas that
// failed with a verdict (corrupt or missing) are repaired in place
// from the delivered bytes once the read succeeds; transcode sources
// and healing's own reconstruction reads pass false — the former must
// not rewrite old-layout blocks mid-move, the latter must not recurse.
func (s *Store) readDataBlockInto(dst []byte, cc codec, name string, fi FileInfo, ext, stripe, symbol int, heal bool) (int, error) {
	p := cc.code.Placement()

	// One pooled frame serves every block file this read touches.
	frame := s.framePool.Get()
	defer s.framePool.Put(frame)

	// healVerdicts collects replicas of the wanted symbol whose read
	// failed for their bytes (not transiently); once dst holds the true
	// payload, each is healed from it.
	var healVerdicts []int
	healAll := func() {
		for _, v := range healVerdicts {
			if s.healBlock(cc, name, fi, ext, stripe, symbol, v, dst) == nil && s.obs != nil {
				s.obs.readHeal.Inc()
			}
		}
	}

	// Fast path: a healthy replica.
	var downNodes []int
	for _, v := range p.SymbolNodes[symbol] {
		data, err := s.readBlockInto(s.extentBlockPath(v, name, fi, ext, stripe, symbol), frame)
		if err == nil {
			copy(dst, data)
			healAll()
			return 0, nil
		}
		if heal && !transientReadErr(err) {
			healVerdicts = append(healVerdicts, v)
		}
		downNodes = append(downNodes, v)
	}

	// Degraded path: plan a partial-parity read around the dead
	// replicas. The plan's decode coefficients come from the code's
	// per-erasure-pattern cache, so repeated degraded reads of one
	// failure pattern skip the matrix inversion. A plan's source block
	// can itself turn out corrupt or missing (latent errors cluster
	// under real fault conditions); that is a verdict about its node,
	// so mark the node down and re-plan — the loop is bounded because
	// every pass grows downNodes and planning fails past the code's
	// tolerance.
	rp, ok := cc.code.(core.ReadPlanner)
	if !ok {
		return 0, fmt.Errorf("hdfsraid: code %s cannot plan reads", cc.code.Name())
	}
	payload := s.payloadPool.Get()
	defer s.payloadPool.Put(payload)
replan:
	for {
		plan, err := rp.PlanRead(symbol, downNodes, core.OffCluster)
		var erasure *core.ErasureError
		if errors.As(err, &erasure) {
			// No streaming plan for this failure pattern (heptagon-local
			// with three failures in the symbol's heptagon): decode the
			// whole stripe instead. The stripe read re-reads the wanted
			// symbol's replicas and heals every verdict it meets itself.
			return s.readDataBlockFullStripe(dst, cc, name, fi, ext, stripe, symbol, heal)
		}
		if err != nil {
			return 0, err
		}
		clear(dst)
		for i, tr := range plan.Transfers {
			clear(payload)
			for _, term := range tr.Terms {
				data, err := s.readBlockInto(s.extentBlockPath(tr.From, name, fi, ext, stripe, term.Symbol), frame)
				if err != nil {
					if transientReadErr(err) {
						return 0, err
					}
					downNodes = append(downNodes, tr.From)
					continue replan
				}
				gf256.MulAddSlice(term.Coeff, data, payload)
			}
			coeff := byte(1)
			if plan.Coeffs != nil {
				coeff = plan.Coeffs[i]
			}
			gf256.MulAddSlice(coeff, payload, dst)
		}
		healAll()
		return plan.Bandwidth(), nil
	}
}

// readDataBlockFullStripe is readDataBlockInto's last resort: deliver
// one data block through a full-stripe decode. The returned cost is the
// number of blocks the stripe read loaded.
func (s *Store) readDataBlockFullStripe(dst []byte, cc codec, name string, fi FileInfo, ext, stripe, symbol int, heal bool) (int, error) {
	r := stripeReader{s: s}
	defer r.close()
	data, _, err := r.read(cc, name, fi, ext, stripe, symbol+1, heal)
	if err != nil {
		return 0, err
	}
	copy(dst, data[symbol])
	return len(r.used), nil
}

// healCand names one replica (symbol, node) whose read failed with a
// verdict about its bytes: a checksum mismatch or a missing frame.
type healCand struct{ sym, v int }

// stripeReader reads whole stripes for one goroutine, reusing pooled
// frames and per-stripe scratch across the stripes it reads. Intact
// reads of many stripes then allocate nothing per stripe. It is not
// safe for concurrent use. Call close to return its frames to the pool.
type stripeReader struct {
	s       *Store
	free    [][]byte // pooled frames holding no symbol
	used    [][]byte // frames holding the current stripe's symbols
	symbols [][]byte
	heals   []healCand
}

// frame takes a free frame, drawing from the pool when none is left.
func (r *stripeReader) frame() []byte {
	if n := len(r.free); n > 0 {
		f := r.free[n-1]
		r.free = r.free[:n-1]
		return f
	}
	return r.s.framePool.Get()
}

// close returns every frame the reader holds to the store's pool.
func (r *stripeReader) close() {
	for _, f := range r.free {
		r.s.framePool.Put(f)
	}
	for _, f := range r.used {
		r.s.framePool.Put(f)
	}
	r.free, r.used = nil, nil
}

// readSymbol loads the first readable replica of sym into
// r.symbols[sym]. Replicas that fail with a verdict before it are noted
// as heal candidates; transient failures are not. It reports whether
// any replica was readable.
func (r *stripeReader) readSymbol(cc codec, name string, fi FileInfo, ext, stripe, sym int) bool {
	for _, v := range cc.code.Placement().SymbolNodes[sym] {
		frame := r.frame()
		data, err := r.s.readBlockInto(r.s.extentBlockPath(v, name, fi, ext, stripe, sym), frame)
		if err != nil {
			r.free = append(r.free, frame)
			if !transientReadErr(err) {
				r.heals = append(r.heals, healCand{sym, v})
			}
			continue
		}
		r.symbols[sym] = data
		r.used = append(r.used, frame)
		return true
	}
	return false
}

// read delivers data symbols [0, want) of one extent stripe. It reads
// the replicas of those symbols only. When each has a readable replica
// it returns them as read: no parity frame, no padding block and no
// decode. Otherwise it reads the rest of the stripe (padding data and
// parity) and decodes, and degraded reports that at least one data
// block was reconstructed.
//
// With heal set, a stripe whose data replicas show any damage is read
// in full even when no decode is needed, so the read meets (and heals)
// the stripe's other damaged replicas too, as a read of every symbol
// would. Every replica that failed with a verdict is then healed in
// place: data replicas from the delivered bytes, parity replicas by
// re-encoding (see healBlock).
//
// The returned blocks alias the reader's frames or the decode output
// and stay valid until the next read or close.
func (r *stripeReader) read(cc codec, name string, fi FileInfo, ext, stripe, want int, heal bool) (data [][]byte, degraded bool, err error) {
	k, nsym := cc.code.DataSymbols(), cc.code.Symbols()
	r.free = append(r.free, r.used...)
	r.used = r.used[:0]
	r.heals = r.heals[:0]
	if cap(r.symbols) < nsym {
		r.symbols = make([][]byte, nsym)
	}
	r.symbols = r.symbols[:nsym]
	clear(r.symbols)

	intact := true
	for sym := 0; sym < want; sym++ {
		if !r.readSymbol(cc, name, fi, ext, stripe, sym) {
			intact = false
		}
	}
	if !intact || (heal && len(r.heals) > 0) {
		for sym := want; sym < nsym; sym++ {
			r.readSymbol(cc, name, fi, ext, stripe, sym)
		}
	}
	// data holds the stripe's k data blocks as far as they are known:
	// as read when intact (a padding block may be nil), else decoded.
	data = r.symbols[:k]
	if !intact {
		if data, err = cc.code.Decode(r.symbols); err != nil {
			return nil, true, err
		}
	}
	if heal {
		for _, h := range r.heals {
			var content []byte // nil: healBlock reconstructs it
			if h.sym < k {
				content = data[h.sym]
			}
			if r.s.healBlock(cc, name, fi, ext, stripe, h.sym, h.v, content) == nil && r.s.obs != nil {
				r.s.obs.readHeal.Inc()
			}
		}
	}
	return data[:want], !intact, nil
}
