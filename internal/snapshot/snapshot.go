// Package snapshot implements vdom-snap/v1, the versioned full-System
// checkpoint/restore subsystem of the crash-tolerance layer (see
// RECOVERY.md).
//
// A snapshot serializes every layer of a running System — the memory
// manager's VMA tree and page tables (per-PTE domain tags, PMD-disable
// marks, and mutation generations included), the kernel's task, ASID-
// generation, and per-core residency state, the hardware cores' ASID-
// tagged TLBs, permission registers, and walk caches, and the domain
// layer of the trace's kernel kind (VDom manager, libmpk key cache, or
// EPK groups) — into a self-describing container:
//
//	"VDSN" | uvarint version | uvarint #sections |
//	    { uvarint len(name) | name | uvarint len(payload) |
//	      crc32(payload) | payload }*
//
// The first section is always "meta": the replay.Header of the recorded
// run (carrying the config digest), the virtual clock, and the trace
// event index the checkpoint corresponds to. Every payload is CRC-32
// (IEEE) protected and gob-encoded; Decode returns typed errors
// (ErrBadMagic, ErrBadVersion, ErrTruncated, ErrBadChecksum,
// ErrBadRecord) and never panics on hostile input.
//
// Restore composes with internal/replay: it boots a fresh System from
// the meta header and loads each section into its layer, after which
// replay.RunTail re-executes the trace events recorded since the
// checkpoint to reach the crash point.
package snapshot

import (
	"bytes"
	"encoding/binary"
	"encoding/gob"
	"errors"
	"fmt"
	"hash/crc32"
	"sort"

	"vdom/internal/backend"
	"vdom/internal/hw"
	"vdom/internal/kernel"
	"vdom/internal/mm"
	"vdom/internal/pagetable"
	"vdom/internal/replay"
)

// FormatVersion is the on-disk snapshot format version.
const FormatVersion = 1

// FormatName identifies the format in docs and reports.
const FormatName = "vdom-snap/v1"

// Typed decode errors, all matchable with errors.Is.
var (
	// ErrBadMagic means the input does not start with the VDSN magic.
	ErrBadMagic = errors.New("snapshot: bad magic")
	// ErrBadVersion means the format version is unsupported.
	ErrBadVersion = errors.New("snapshot: unsupported version")
	// ErrTruncated means the input ended before the structure did.
	ErrTruncated = errors.New("snapshot: truncated input")
	// ErrBadChecksum means a section payload failed CRC verification.
	ErrBadChecksum = errors.New("snapshot: section checksum mismatch")
	// ErrBadRecord means a structurally invalid record (bad counts,
	// oversized lengths, undecodable payloads, missing sections).
	ErrBadRecord = errors.New("snapshot: bad record")
)

// Sanity caps keeping hostile inputs from allocating unboundedly.
const (
	maxSections    = 1024
	maxNameLen     = 255
	maxPayloadSize = 1 << 26
)

var magic = [4]byte{'V', 'D', 'S', 'N'}

// Meta identifies what a snapshot is a checkpoint of.
type Meta struct {
	// Header is the recorded run's trace header; its ConfigDigest ties
	// the snapshot to the run configuration, and Restore boots the
	// System skeleton from it.
	Header replay.Header
	// Clock is the virtual cycle clock at the checkpoint.
	Clock uint64
	// EventIndex is the number of trace events recorded before the
	// checkpoint: tail recovery replays Events[EventIndex:].
	EventIndex int
}

// metaWire is the meta section's payload: Meta with the header's Extra
// map moved into a key-sorted slice. gob writes a map in iteration order,
// so encoding the map itself would make two encodings of one State differ.
// The field names match Meta's, so a payload that still carries Extra as a
// map decodes too.
type metaWire struct {
	Header     replay.Header
	Extra      []extraEntry
	Clock      uint64
	EventIndex int
}

// extraEntry is one Header.Extra key/value pair.
type extraEntry struct {
	Key string
	Val uint64
}

func encodeMeta(m Meta) []byte {
	w := metaWire{Header: m.Header, Clock: m.Clock, EventIndex: m.EventIndex}
	w.Header.Extra = nil
	for k, v := range m.Header.Extra {
		w.Extra = append(w.Extra, extraEntry{k, v})
	}
	sort.Slice(w.Extra, func(i, j int) bool { return w.Extra[i].Key < w.Extra[j].Key })
	return gobEncode(w)
}

func decodeMeta(sec Section) (Meta, error) {
	var w metaWire
	if err := gobDecode(sec, &w); err != nil {
		return Meta{}, err
	}
	m := Meta{Header: w.Header, Clock: w.Clock, EventIndex: w.EventIndex}
	if len(w.Extra) > 0 {
		m.Header.Extra = make(map[string]uint64, len(w.Extra))
		for _, e := range w.Extra {
			m.Header.Extra[e.Key] = e.Val
		}
	}
	return m, nil
}

// Section is one named, CRC-protected payload.
type Section struct {
	Name string
	Data []byte
	// Offset is the section record's byte offset in the decoded
	// container (0 for captured, not-yet-encoded sections). Decode and
	// Restore errors carry it so a bad section can be located in the
	// file without re-parsing.
	Offset int64
}

// State is a decoded (or captured, not-yet-encoded) snapshot.
type State struct {
	Meta Meta
	// Sections holds every non-meta section in container order.
	Sections []Section
}

// AddSection appends a section (e.g. the chaos injector's PRNG state,
// attached by the crash-soak harness).
func (s *State) AddSection(name string, data []byte) {
	s.Sections = append(s.Sections, Section{Name: name, Data: data})
}

// Section returns the named section's payload.
func (s *State) Section(name string) ([]byte, bool) {
	sec, ok := s.lookup(name)
	return sec.Data, ok
}

// lookup returns the full named section, offset included.
func (s *State) lookup(name string) (Section, bool) {
	for _, sec := range s.Sections {
		if sec.Name == name {
			return sec, true
		}
	}
	return Section{}, false
}

// Section names of the substrate images; each domain layer's section is
// named by its backend (Backend.Section — "core/manager", "libmpk",
// "epk", "dpti").
const (
	secMeta   = "meta"
	secMM     = "mm/as"
	secKernel = "kernel"
	secHW     = "hw/machine"
)

// machineSnap is the hardware section: the frame allocator watermark
// plus every core's image.
type machineSnap struct {
	FrameWatermark pagetable.Frame
	Cores          []hw.CoreSnap
}

// gobEncode serializes v; snapshot payloads are internal, so encoding
// failures are programming errors.
func gobEncode(v any) []byte {
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(v); err != nil {
		panic(fmt.Sprintf("snapshot: gob encode: %v", err))
	}
	return buf.Bytes()
}

// gobDecode decodes a section payload, typing any failure — including a
// truncated-but-CRC-consistent payload — as ErrBadRecord with the
// section's name and container offset.
func gobDecode(sec Section, v any) error {
	if err := gob.NewDecoder(bytes.NewReader(sec.Data)).Decode(v); err != nil {
		return fmt.Errorf("%w: section %q at offset %d: %v", ErrBadRecord, sec.Name, sec.Offset, err)
	}
	return nil
}

// Capture builds a snapshot of the live System: hdr describes the run
// (as recorded by the trace recorder), clock is the current virtual
// clock, and eventIndex is the number of trace events recorded so far.
func Capture(sys *replay.System, hdr replay.Header, clock uint64, eventIndex int) (*State, error) {
	if sys == nil {
		return nil, fmt.Errorf("%w: nil system", ErrBadRecord)
	}
	st := &State{Meta: Meta{Header: hdr, Clock: clock, EventIndex: eventIndex}}

	if sys.Proc != nil {
		as := sys.Proc.AS()
		st.AddSection(secMM, gobEncode(as.Snap()))

		// Stable table-id mapping; stale pointers (a reaped VDS's table
		// lingering in a core's loaded-table or walk-memo slot) map to
		// "none": they can never match a live table again, so the
		// restored miss behaviour is identical.
		ids := map[*pagetable.Table]int{as.Shadow(): 0}
		for j, t := range as.Tables() {
			ids[t] = j + 1
		}
		tableID := func(t *pagetable.Table) int {
			if t == nil {
				return -1
			}
			if id, ok := ids[t]; ok {
				return id
			}
			return -1
		}
		st.AddSection(secKernel, gobEncode(sys.Kernel.Snap(sys.Proc, tableID)))

		ms := machineSnap{FrameWatermark: sys.Machine.FrameWatermark()}
		for i := 0; i < sys.Machine.NumCores(); i++ {
			cs := sys.Machine.Core(i).Snap(tableID)
			if cs.Walk.TableID == -1 {
				cs.Walk.Valid = false
			}
			ms.Cores = append(ms.Cores, cs)
		}
		st.AddSection(secHW, gobEncode(ms))

		// Process-scoped domain layers, in backend registration order —
		// which is also the container's stable section order.
		for _, b := range backend.All() {
			if b.ProcScoped() && b.Present(sys) {
				st.AddSection(b.Section(), gobEncode(b.Capture(sys, tableID)))
			}
		}
	}
	for _, b := range backend.All() {
		if !b.ProcScoped() && b.Present(sys) {
			st.AddSection(b.Section(), gobEncode(b.Capture(sys, nil)))
		}
	}
	return st, nil
}

// Restore boots a fresh System from the snapshot's header and loads
// every captured layer into it. It returns the System and its live
// tasks keyed by trace thread id, ready for replay.RunTail.
func Restore(st *State) (*replay.System, map[uint64]*kernel.Task, error) {
	sys, err := replay.Boot(st.Meta.Header)
	if err != nil {
		return nil, nil, err
	}
	tasks := map[uint64]*kernel.Task{}

	if sys.Proc != nil {
		sec, ok := st.lookup(secMM)
		if !ok {
			return nil, nil, fmt.Errorf("%w: missing section %q", ErrBadRecord, secMM)
		}
		var asSnap mm.ASSnap
		if err := gobDecode(sec, &asSnap); err != nil {
			return nil, nil, err
		}
		space := sys.Proc.AS()
		space.LoadSnap(asSnap)
		numTables := len(asSnap.Tables)

		sec, ok = st.lookup(secKernel)
		if !ok {
			return nil, nil, fmt.Errorf("%w: missing section %q", ErrBadRecord, secKernel)
		}
		var ks kernel.Snap
		if err := gobDecode(sec, &ks); err != nil {
			return nil, nil, err
		}
		if err := checkTableIDs(sec, ks, numTables); err != nil {
			return nil, nil, err
		}
		byTID := sys.Kernel.LoadSnap(ks, sys.Proc, space.TableByID)
		for tid, tk := range byTID {
			tasks[uint64(tid)] = tk
		}
		taskFn := func(tid int) *kernel.Task {
			if tid == 0 {
				return nil
			}
			return byTID[tid]
		}

		sec, ok = st.lookup(secHW)
		if !ok {
			return nil, nil, fmt.Errorf("%w: missing section %q", ErrBadRecord, secHW)
		}
		var ms machineSnap
		if err := gobDecode(sec, &ms); err != nil {
			return nil, nil, err
		}
		if len(ms.Cores) != sys.Machine.NumCores() {
			return nil, nil, fmt.Errorf("%w: section %q at offset %d: snapshot has %d cores, header boots %d",
				ErrBadRecord, sec.Name, sec.Offset, len(ms.Cores), sys.Machine.NumCores())
		}
		// The watermark must clear every frame the machine holds, both
		// booted and mapped by the restored tables: a lower one would
		// hand out frames already in use.
		if held := max(sys.Machine.FrameWatermark(), frameEnd(asSnap)); ms.FrameWatermark < held {
			return nil, nil, fmt.Errorf("%w: section %q at offset %d: frame watermark %d is below %d, the frames the restored machine holds",
				ErrBadRecord, sec.Name, sec.Offset, ms.FrameWatermark, held)
		}
		for i, cs := range ms.Cores {
			if cs.TableID < -1 || cs.TableID > numTables ||
				cs.Walk.TableID < -1 || cs.Walk.TableID > numTables {
				return nil, nil, fmt.Errorf("%w: section %q at offset %d: core %d references table out of range",
					ErrBadRecord, sec.Name, sec.Offset, i)
			}
			if err := sys.Machine.Core(i).LoadSnap(cs, space.TableByID); err != nil {
				return nil, nil, fmt.Errorf("%w: section %q at offset %d: core %d: %v",
					ErrBadRecord, sec.Name, sec.Offset, i, err)
			}
		}
		sys.Machine.SetFrameWatermark(ms.FrameWatermark)

		for _, b := range backend.All() {
			if !b.ProcScoped() || !b.Present(sys) {
				continue
			}
			if err := restoreSection(st, b, sys, space.TableByID, taskFn); err != nil {
				return nil, nil, err
			}
		}
	}
	for _, b := range backend.All() {
		if b.ProcScoped() || !b.Present(sys) {
			continue
		}
		if err := restoreSection(st, b, sys, nil, nil); err != nil {
			return nil, nil, err
		}
	}
	return sys, tasks, nil
}

// frameEnd returns one past the highest frame any table of the image
// maps. Frames come only from the machine's allocator, so a consistent
// snapshot's watermark is never below it.
func frameEnd(as mm.ASSnap) pagetable.Frame {
	var end pagetable.Frame
	for _, ts := range append([]pagetable.TableState{as.Shadow}, as.Tables...) {
		for _, pg := range ts.Pages {
			end = max(end, pg.PTE.Frame+1)
		}
	}
	return end
}

// restoreSection locates a backend's section and hands it to the
// backend's decoder, preserving the typed missing-section and
// bad-payload errors.
func restoreSection(st *State, b backend.Backend, sys *replay.System,
	table func(int) *pagetable.Table, task func(int) *kernel.Task) error {
	sec, ok := st.lookup(b.Section())
	if !ok {
		return fmt.Errorf("%w: missing section %q", ErrBadRecord, b.Section())
	}
	return b.Restore(sys, func(v any) error { return gobDecode(sec, v) }, table, task)
}

// checkTableIDs validates the kernel section's table references against
// the restored address space, turning out-of-range ids (a corrupted but
// checksum-valid snapshot) into typed errors — naming the section and
// its container offset — instead of panics.
func checkTableIDs(sec Section, ks kernel.Snap, numTables int) error {
	for _, ts := range ks.Tasks {
		if ts.TableID < -1 || ts.TableID > numTables {
			return fmt.Errorf("%w: section %q at offset %d: task %d references table %d of %d",
				ErrBadRecord, sec.Name, sec.Offset, ts.TID, ts.TableID, numTables)
		}
	}
	return nil
}

// Encode serializes the snapshot into the vdom-snap/v1 container.
func Encode(st *State) []byte {
	var buf bytes.Buffer
	buf.Write(magic[:])
	writeUvarint(&buf, FormatVersion)
	writeUvarint(&buf, uint64(1+len(st.Sections)))
	writeSection(&buf, Section{Name: secMeta, Data: encodeMeta(st.Meta)})
	for _, sec := range st.Sections {
		writeSection(&buf, sec)
	}
	return buf.Bytes()
}

func writeUvarint(buf *bytes.Buffer, v uint64) {
	var tmp [binary.MaxVarintLen64]byte
	buf.Write(tmp[:binary.PutUvarint(tmp[:], v)])
}

func writeSection(buf *bytes.Buffer, sec Section) {
	if len(sec.Name) > maxNameLen {
		panic(fmt.Sprintf("snapshot: section name %q too long", sec.Name))
	}
	if len(sec.Data) > maxPayloadSize {
		panic(fmt.Sprintf("snapshot: section %q payload %d exceeds cap", sec.Name, len(sec.Data)))
	}
	writeUvarint(buf, uint64(len(sec.Name)))
	buf.WriteString(sec.Name)
	writeUvarint(buf, uint64(len(sec.Data)))
	var crc [4]byte
	binary.LittleEndian.PutUint32(crc[:], crc32.ChecksumIEEE(sec.Data))
	buf.Write(crc[:])
	buf.Write(sec.Data)
}

// Decode parses a vdom-snap/v1 container. It verifies the magic,
// version, structure, and every section's CRC, returning typed errors
// for each failure mode; it never panics on hostile input.
func Decode(b []byte) (*State, error) {
	r := bytes.NewReader(b)
	var m [4]byte
	if _, err := r.Read(m[:]); err != nil || m != magic {
		return nil, ErrBadMagic
	}
	version, err := binary.ReadUvarint(r)
	if err != nil {
		return nil, ErrTruncated
	}
	if version != FormatVersion {
		return nil, fmt.Errorf("%w: %d (supported: %d)", ErrBadVersion, version, FormatVersion)
	}
	count, err := binary.ReadUvarint(r)
	if err != nil {
		return nil, ErrTruncated
	}
	if count == 0 || count > maxSections {
		return nil, fmt.Errorf("%w: %d sections", ErrBadRecord, count)
	}
	st := &State{}
	sawMeta := false
	for i := uint64(0); i < count; i++ {
		off := int64(len(b) - r.Len())
		sec, err := readSection(r, off)
		if err != nil {
			return nil, err
		}
		if sec.Name == secMeta {
			if sawMeta {
				return nil, fmt.Errorf("%w: duplicate meta section at offset %d", ErrBadRecord, off)
			}
			sawMeta = true
			if st.Meta, err = decodeMeta(sec); err != nil {
				return nil, err
			}
			continue
		}
		st.Sections = append(st.Sections, sec)
	}
	if r.Len() != 0 {
		return nil, fmt.Errorf("%w: %d trailing bytes", ErrBadRecord, r.Len())
	}
	if !sawMeta {
		return nil, fmt.Errorf("%w: missing meta section", ErrBadRecord)
	}
	return st, nil
}

// readSection reads one section record; off is the record's offset in
// the container, carried into the section and its error messages.
func readSection(r *bytes.Reader, off int64) (Section, error) {
	nameLen, err := binary.ReadUvarint(r)
	if err != nil {
		return Section{}, ErrTruncated
	}
	if nameLen == 0 || nameLen > maxNameLen {
		return Section{}, fmt.Errorf("%w: section name length %d at offset %d", ErrBadRecord, nameLen, off)
	}
	name := make([]byte, nameLen)
	if _, err := readFull(r, name); err != nil {
		return Section{}, ErrTruncated
	}
	payLen, err := binary.ReadUvarint(r)
	if err != nil {
		return Section{}, ErrTruncated
	}
	if payLen > maxPayloadSize {
		return Section{}, fmt.Errorf("%w: section %q at offset %d: payload length %d", ErrBadRecord, name, off, payLen)
	}
	if uint64(r.Len()) < payLen+4 {
		return Section{}, ErrTruncated
	}
	var crc [4]byte
	if _, err := readFull(r, crc[:]); err != nil {
		return Section{}, ErrTruncated
	}
	data := make([]byte, payLen)
	if _, err := readFull(r, data); err != nil {
		return Section{}, ErrTruncated
	}
	if crc32.ChecksumIEEE(data) != binary.LittleEndian.Uint32(crc[:]) {
		return Section{}, fmt.Errorf("%w: section %q at offset %d", ErrBadChecksum, string(name), off)
	}
	return Section{Name: string(name), Data: data, Offset: off}, nil
}

func readFull(r *bytes.Reader, p []byte) (int, error) {
	n := 0
	for n < len(p) {
		m, err := r.Read(p[n:])
		n += m
		if err != nil {
			return n, err
		}
	}
	return n, nil
}
