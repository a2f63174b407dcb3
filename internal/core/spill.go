package core

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"

	"eel/internal/sparc"
)

// This file is the schedule cache's on-disk spill: a size-bounded binary
// snapshot of (seed, input block, scheduled block, telemetry record)
// entries so a daemon restart starts warm instead of rescheduling every
// hot block from scratch (cmd/eeld writes one on graceful drain and
// loads it on boot).
//
// Safety model — a spill may cost warmth, never correctness:
//
//   - The file carries a caller-supplied fingerprint (cmd/eeld uses the
//     build's git revision). A mismatch means the scheduler, the SADL
//     tables or the instruction encoding may have changed, so the whole
//     file is ignored and the cache starts cold.
//   - The payload is covered by a trailing CRC-32. Truncation or bit rot
//     fails the checksum and the whole file is ignored (ErrSpillCorrupt):
//     no partially-restored state, never a wrong schedule.
//   - Entries store the cache *seed*, not the derived key; LoadSpill
//     recomputes the key from (seed, block) through the same hash the
//     live cache uses, and lookups still compare the full input block
//     before declaring a hit. A corrupt-but-checksummed entry therefore
//     degrades to an unreachable slot, not a wrong answer.

// spillMagic identifies the spill format ("EELS", version below).
var spillMagic = [4]byte{'E', 'E', 'L', 'S'}

// spillVersion is bumped whenever the entry encoding changes. Version 2
// added the telemetry record (blockTel) after each entry's blocks.
const spillVersion = 2

// ErrSpillCorrupt reports a spill file that failed structural or checksum
// validation. The cache is left exactly as it was (cold, for a fresh
// cache): callers log and continue.
var ErrSpillCorrupt = errors.New("core: spill file corrupt")

// instBytes is the fixed on-disk size of one serialized instruction.
const instBytes = 14

func putInst(b []byte, in sparc.Inst) {
	b[0] = byte(in.Op)
	b[1] = byte(in.Rd)
	b[2] = byte(in.Rs1)
	b[3] = byte(in.Rs2)
	b[4] = byte(in.Cond)
	var flags byte
	if in.UseImm {
		flags |= 1
	}
	if in.Annul {
		flags |= 2
	}
	if in.Instrumented {
		flags |= 4
	}
	b[5] = flags
	binary.BigEndian.PutUint32(b[6:], uint32(in.Imm))
	binary.BigEndian.PutUint32(b[10:], uint32(in.Disp))
}

func getInst(b []byte) sparc.Inst {
	return sparc.Inst{
		Op:           sparc.Op(b[0]),
		Rd:           sparc.Reg(b[1]),
		Rs1:          sparc.Reg(b[2]),
		Rs2:          sparc.Reg(b[3]),
		Cond:         sparc.Cond(b[4]),
		UseImm:       b[5]&1 != 0,
		Annul:        b[5]&2 != 0,
		Instrumented: b[5]&4 != 0,
		Imm:          int32(binary.BigEndian.Uint32(b[6:])),
		Disp:         int32(binary.BigEndian.Uint32(b[10:])),
	}
}

// spillEntry is one cache entry lifted out of its shard for writing.
type spillEntry struct {
	seed  uint64
	block []sparc.Inst
	out   []sparc.Inst
	tel   *blockTel
}

// appendTel appends r's encoding: a presence byte, then (when r is
// non-nil) its fixed part, the unit count and the per-unit counts.
func appendTel(b []byte, r *blockTel) []byte {
	if r == nil {
		return append(b, 0)
	}
	buf := bytes.NewBuffer(append(b, 1))
	binary.Write(buf, binary.BigEndian, &r.telFixed)
	binary.Write(buf, binary.BigEndian, uint16(len(r.Unit)))
	binary.Write(buf, binary.BigEndian, r.Unit)
	return buf.Bytes()
}

// parseTel decodes appendTel's encoding from the front of p and returns
// the record (nil when none was stored) and the rest of p; ok is false
// when p is too short.
func parseTel(p []byte) (r *blockTel, rest []byte, ok bool) {
	if len(p) == 0 {
		return nil, nil, false
	}
	if p[0] == 0 {
		return nil, p[1:], true
	}
	rd := bytes.NewReader(p[1:])
	r = &blockTel{}
	var n uint16
	if binary.Read(rd, binary.BigEndian, &r.telFixed) != nil || binary.Read(rd, binary.BigEndian, &n) != nil {
		return nil, nil, false
	}
	r.Unit = make([]uint32, n)
	if binary.Read(rd, binary.BigEndian, r.Unit) != nil {
		return nil, nil, false
	}
	return r, p[len(p)-rd.Len():], true
}

// snapshotMRU collects every entry in approximate global recency order:
// each shard is walked most-recent first, and the shards are interleaved
// round-robin so a byte budget keeps the hottest entries of *every*
// shard, not the full contents of the first few.
func (c *Cache) snapshotMRU() []spillEntry {
	perShard := make([][]spillEntry, len(c.shards))
	total := 0
	for i := range c.shards {
		sh := &c.shards[i]
		sh.mu.Lock()
		list := make([]spillEntry, 0, len(sh.entries))
		for e := sh.head; e != nil; e = e.next {
			list = append(list, spillEntry{seed: e.seed, block: e.block, out: e.out, tel: e.tel})
		}
		sh.mu.Unlock()
		perShard[i] = list
		total += len(list)
	}
	out := make([]spillEntry, 0, total)
	for rank := 0; len(out) < total; rank++ {
		for _, list := range perShard {
			if rank < len(list) {
				out = append(out, list[rank])
			}
		}
	}
	return out
}

// SaveSpill writes the cache to path (atomically, via a temp file and
// rename) and returns how many entries were written. maxBytes bounds the
// file size; 0 means no bound. When the budget is smaller than the cache,
// the most recently used entries across all shards are kept.
func (c *Cache) SaveSpill(path, fingerprint string, maxBytes int) (int, error) {
	if len(fingerprint) > 0xffff {
		return 0, fmt.Errorf("core: spill fingerprint too long (%d bytes)", len(fingerprint))
	}
	var buf bytes.Buffer
	buf.Write(spillMagic[:])
	var w4 [4]byte
	binary.BigEndian.PutUint32(w4[:], spillVersion)
	buf.Write(w4[:])
	var w2 [2]byte
	binary.BigEndian.PutUint16(w2[:], uint16(len(fingerprint)))
	buf.Write(w2[:])
	buf.WriteString(fingerprint)

	written := 0
	scratch := make([]byte, 0, 1024)
	for _, e := range c.snapshotMRU() {
		scratch = binary.BigEndian.AppendUint64(scratch[:0], e.seed)
		scratch = binary.BigEndian.AppendUint32(scratch, uint32(len(e.block)))
		scratch = binary.BigEndian.AppendUint32(scratch, uint32(len(e.out)))
		for _, blk := range [...][]sparc.Inst{e.block, e.out} {
			for _, in := range blk {
				var ib [instBytes]byte
				putInst(ib[:], in)
				scratch = append(scratch, ib[:]...)
			}
		}
		scratch = appendTel(scratch, e.tel)
		// The trailing CRC must also fit inside the budget.
		if maxBytes > 0 && buf.Len()+len(scratch)+4 > maxBytes {
			continue
		}
		buf.Write(scratch)
		written++
	}
	binary.BigEndian.PutUint32(w4[:], crc32.ChecksumIEEE(buf.Bytes()))
	buf.Write(w4[:])

	tmp, err := os.CreateTemp(filepath.Dir(path), ".spill-*")
	if err != nil {
		return 0, err
	}
	if _, err := tmp.Write(buf.Bytes()); err != nil {
		tmp.Close()
		os.Remove(tmp.Name())
		return 0, err
	}
	if err := tmp.Close(); err != nil {
		os.Remove(tmp.Name())
		return 0, err
	}
	if err := os.Rename(tmp.Name(), path); err != nil {
		os.Remove(tmp.Name())
		return 0, err
	}
	return written, nil
}

// LoadSpill restores entries from a spill file written by SaveSpill.
// Restores go through the normal insertion path, so capacity and LRU
// bounds hold and later lookups still verify the stored input block.
//
// A missing file or a fingerprint mismatch is a clean cold start:
// (0, nil). A structurally invalid or checksum-failing file returns
// ErrSpillCorrupt with nothing restored.
func (c *Cache) LoadSpill(path, fingerprint string) (int, error) {
	raw, err := os.ReadFile(path)
	if os.IsNotExist(err) {
		return 0, nil
	}
	if err != nil {
		return 0, err
	}
	if len(raw) < 4+4+2+4 {
		return 0, fmt.Errorf("%w: %d-byte file", ErrSpillCorrupt, len(raw))
	}
	body, tail := raw[:len(raw)-4], raw[len(raw)-4:]
	if crc32.ChecksumIEEE(body) != binary.BigEndian.Uint32(tail) {
		return 0, fmt.Errorf("%w: checksum mismatch", ErrSpillCorrupt)
	}
	if !bytes.Equal(body[:4], spillMagic[:]) {
		return 0, fmt.Errorf("%w: bad magic", ErrSpillCorrupt)
	}
	if v := binary.BigEndian.Uint32(body[4:]); v != spillVersion {
		return 0, fmt.Errorf("%w: unsupported version %d", ErrSpillCorrupt, v)
	}
	flen := int(binary.BigEndian.Uint16(body[8:]))
	if 10+flen > len(body) {
		return 0, fmt.Errorf("%w: truncated fingerprint", ErrSpillCorrupt)
	}
	if string(body[10:10+flen]) != fingerprint {
		return 0, nil // different build: expected invalidation, start cold
	}

	// Parse every entry before touching the cache, so a malformed file
	// can never leave a partial restore behind.
	var entries []spillEntry
	p := body[10+flen:]
	for len(p) > 0 {
		if len(p) < 16 {
			return 0, fmt.Errorf("%w: truncated entry header", ErrSpillCorrupt)
		}
		seed := binary.BigEndian.Uint64(p)
		nb := int(binary.BigEndian.Uint32(p[8:]))
		no := int(binary.BigEndian.Uint32(p[12:]))
		p = p[16:]
		need := (nb + no) * instBytes
		if nb < 0 || no < 0 || need < 0 || need > len(p) {
			return 0, fmt.Errorf("%w: entry overruns file", ErrSpillCorrupt)
		}
		e := spillEntry{seed: seed,
			block: make([]sparc.Inst, nb),
			out:   make([]sparc.Inst, no)}
		for i := range e.block {
			e.block[i] = getInst(p[i*instBytes:])
		}
		p = p[nb*instBytes:]
		for i := range e.out {
			e.out[i] = getInst(p[i*instBytes:])
		}
		p = p[no*instBytes:]
		var ok bool
		if e.tel, p, ok = parseTel(p); !ok {
			return 0, fmt.Errorf("%w: truncated telemetry record", ErrSpillCorrupt)
		}
		entries = append(entries, e)
	}
	// Entries were written hottest-first; insert in reverse so the
	// restored LRU order matches the saved one.
	for i := len(entries) - 1; i >= 0; i-- {
		e := &entries[i]
		c.put(e.seed, e.block, e.out, e.tel)
	}
	return len(entries), nil
}
