package snapshot_test

import (
	"bytes"
	"encoding/gob"
	"errors"
	"fmt"
	"reflect"
	"strings"
	"testing"

	"vdom/internal/chaos"
	"vdom/internal/hw"
	"vdom/internal/metrics"
	"vdom/internal/pagetable"
	"vdom/internal/replay"
	"vdom/internal/snapshot"
	"vdom/internal/tlb"
)

// soakCfg is the shared crash-soak configuration: every fault class
// enabled, small enough to run each crash kind under -race.
func soakCfg(seed uint64) chaos.SoakConfig {
	return chaos.SoakConfig{
		Chaos: chaos.Config{
			Seed:           seed,
			DropIPI:        0.05,
			DelayIPI:       0.05,
			StaleTLB:       0.03,
			ASIDExhaustion: 0.02,
			ASIDLimit:      tlb.ASID(24),
			VDSAllocFail:   0.10,
			PdomExhaustion: 0.05,
			SpuriousFault:  0.02,
		},
		Ops:    600,
		Record: true,
	}
}

// TestCrashRecoverBitIdentical is the tentpole acceptance check: for
// each crash kind, checkpoint → crash → watchdog/audit detection →
// restore + tail replay must yield a run whose trace (end state, final
// clock, and domain-map digest included) is byte-identical to the
// uninterrupted run of the same seed, with identical fault counters and
// metrics.
func TestCrashRecoverBitIdentical(t *testing.T) {
	for _, kind := range []chaos.CrashKind{chaos.CrashCore, chaos.CrashKernelPanic, chaos.CrashTornDomainMap} {
		t.Run(kind.String(), func(t *testing.T) {
			seed := uint64(0x5eed + kind)
			refCfg := soakCfg(seed)
			refMetrics := metrics.New()
			refCfg.Metrics = refMetrics
			ref := chaos.Soak(refCfg)
			if len(ref.Unrecovered) != 0 || len(ref.Violations) != 0 {
				t.Fatalf("reference run unhealthy: %d unrecovered, %d violations", len(ref.Unrecovered), len(ref.Violations))
			}

			crashCfg := soakCfg(seed)
			crashMetrics := metrics.New()
			crashCfg.Metrics = crashMetrics
			out, err := chaos.CrashSoak(crashCfg, chaos.CrashConfig{Kind: kind, AtOp: 351, CheckpointEvery: 100})
			if err != nil {
				t.Fatalf("CrashSoak: %v", err)
			}
			if kind != chaos.CrashTornDomainMap && !out.WatchdogFired {
				t.Errorf("watchdog did not fire for %s", kind)
			}
			if out.TailEvents == 0 {
				t.Errorf("recovery replayed no tail events")
			}
			if out.CheckpointOp != 300 {
				t.Errorf("recovered from checkpoint at op %d, want 300", out.CheckpointOp)
			}
			if len(out.PostViolations) != 0 {
				t.Errorf("recovered system failed audit: %v", out.PostViolations)
			}
			res := out.Result
			if len(res.Unrecovered) != 0 || len(res.Violations) != 0 {
				t.Fatalf("crash run unhealthy: %v %v", res.Unrecovered, res.Violations)
			}

			refBytes := replay.Encode(ref.Trace)
			gotBytes := replay.Encode(res.Trace)
			if !bytes.Equal(refBytes, gotBytes) {
				t.Fatalf("recovered trace differs from uninterrupted run (%d vs %d bytes)", len(gotBytes), len(refBytes))
			}
			for k, v := range ref.Trace.End {
				if res.Trace.End[k] != v {
					t.Errorf("end state %q: recovered %d, uninterrupted %d", k, res.Trace.End[k], v)
				}
			}
			if fmt.Sprint(ref.Injected) != fmt.Sprint(res.Injected) ||
				fmt.Sprint(ref.Recovered) != fmt.Sprint(res.Recovered) {
				t.Errorf("fault counters diverged:\nref %v %v\ngot %v %v", ref.Injected, ref.Recovered, res.Injected, res.Recovered)
			}

			var refJSON, gotJSON bytes.Buffer
			if err := refMetrics.WriteJSON(&refJSON); err != nil {
				t.Fatal(err)
			}
			if err := crashMetrics.WriteJSON(&gotJSON); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(refJSON.Bytes(), gotJSON.Bytes()) {
				t.Errorf("metrics snapshots differ across recovery")
			}
		})
	}
}

// TestSnapshotContainerRoundTrip checks the container codec alone:
// sections, order, meta, and payloads all survive Encode/Decode.
func TestSnapshotContainerRoundTrip(t *testing.T) {
	st := &snapshot.State{Meta: snapshot.Meta{
		Header: replay.Header{Version: replay.FormatVersion, Kernel: replay.KernelVDom, Arch: "x86", Cores: 2},
		Clock:  12345, EventIndex: 42,
	}}
	st.AddSection("alpha", []byte("hello"))
	st.AddSection("beta", nil)
	got, err := snapshot.Decode(snapshot.Encode(st))
	if err != nil {
		t.Fatalf("Decode: %v", err)
	}
	if got.Meta.Clock != 12345 || got.Meta.EventIndex != 42 || got.Meta.Header.Cores != 2 {
		t.Errorf("meta mismatch: %+v", got.Meta)
	}
	if len(got.Sections) != 2 || got.Sections[0].Name != "alpha" || string(got.Sections[0].Data) != "hello" {
		t.Errorf("sections mismatch: %+v", got.Sections)
	}
	if d, ok := got.Section("beta"); !ok || len(d) != 0 {
		t.Errorf("beta section lost")
	}
}

// TestEncodeDeterministic encodes one State whose header carries a
// chaos soak's Extra map many times: every encoding must be the same
// bytes, and the map must survive the round trip.
func TestEncodeDeterministic(t *testing.T) {
	extra := chaos.ExtraConfig(soakCfg(3).Chaos)
	if len(extra) < 8 {
		t.Fatalf("fixture carries %d Extra keys, want at least 8", len(extra))
	}
	st := &snapshot.State{Meta: snapshot.Meta{
		Header: replay.Header{Version: replay.FormatVersion, Kernel: replay.KernelVDom, Arch: "x86", Cores: 2, Extra: extra},
		Clock:  99, EventIndex: 5,
	}}
	st.AddSection("alpha", []byte("hello"))
	want := snapshot.Encode(st)
	for i := 1; i < 20; i++ {
		if got := snapshot.Encode(st); !bytes.Equal(got, want) {
			t.Fatalf("encoding %d differs from the first", i)
		}
	}
	got, err := snapshot.Decode(want)
	if err != nil {
		t.Fatalf("Decode: %v", err)
	}
	if !reflect.DeepEqual(got.Meta, st.Meta) {
		t.Errorf("meta round trip: got %+v, want %+v", got.Meta, st.Meta)
	}
}

// TestDecodeTypedErrors pins each decode failure mode to its sentinel.
func TestDecodeTypedErrors(t *testing.T) {
	st := &snapshot.State{Meta: snapshot.Meta{Clock: 7}}
	st.AddSection("x", []byte("payload"))
	valid := snapshot.Encode(st)

	if _, err := snapshot.Decode([]byte("nope")); !errors.Is(err, snapshot.ErrBadMagic) {
		t.Errorf("bad magic: got %v", err)
	}
	bad := append([]byte(nil), valid...)
	bad[4] = 99 // version varint
	if _, err := snapshot.Decode(bad); !errors.Is(err, snapshot.ErrBadVersion) {
		t.Errorf("bad version: got %v", err)
	}
	if _, err := snapshot.Decode(valid[:len(valid)-3]); !errors.Is(err, snapshot.ErrTruncated) {
		t.Errorf("truncated: got %v", err)
	}
	bad = append([]byte(nil), valid...)
	bad[len(bad)-1] ^= 0xff // last payload byte
	if _, err := snapshot.Decode(bad); !errors.Is(err, snapshot.ErrBadChecksum) {
		t.Errorf("bad checksum: got %v", err)
	}
	if _, err := snapshot.Decode(append(append([]byte(nil), valid...), 0xaa)); !errors.Is(err, snapshot.ErrBadRecord) {
		t.Errorf("trailing bytes: got %v", err)
	}
}

// FuzzSnapshotDecode asserts Decode never panics, whatever the input.
func FuzzSnapshotDecode(f *testing.F) {
	st := &snapshot.State{Meta: snapshot.Meta{
		Header: replay.Header{Version: replay.FormatVersion, Kernel: replay.KernelVDom, Arch: "x86", Cores: 1},
		Clock:  99, EventIndex: 3,
	}}
	st.AddSection("chaos/injector", []byte{1, 2, 3, 4})
	valid := snapshot.Encode(st)
	f.Add(valid)
	for _, n := range []int{0, 3, 4, 5, len(valid) / 2, len(valid) - 1} {
		if n <= len(valid) {
			f.Add(valid[:n])
		}
	}
	corrupt := append([]byte(nil), valid...)
	corrupt[len(corrupt)/2] ^= 0x40
	f.Add(corrupt)
	f.Fuzz(func(t *testing.T, data []byte) {
		st, err := snapshot.Decode(data)
		if err == nil && st == nil {
			t.Fatal("nil state with nil error")
		}
	})
}

// BenchmarkCheckpoint measures full-System capture+encode throughput in
// snapshot bytes per second.
func BenchmarkCheckpoint(b *testing.B) {
	s := chaos.StartSoak(soakCfg(7))
	for i := 0; i < 500; i++ {
		s.Step()
	}
	snap, err := s.Checkpoint()
	if err != nil {
		b.Fatal(err)
	}
	b.SetBytes(int64(len(snap)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := s.Checkpoint(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkRestore measures decode+restore throughput in snapshot bytes
// per second (no tail replay).
func BenchmarkRestore(b *testing.B) {
	s := chaos.StartSoak(soakCfg(7))
	for i := 0; i < 500; i++ {
		s.Step()
	}
	snap, err := s.Checkpoint()
	if err != nil {
		b.Fatal(err)
	}
	b.SetBytes(int64(len(snap)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		st, err := snapshot.Decode(snap)
		if err != nil {
			b.Fatal(err)
		}
		if _, _, err := snapshot.Restore(st); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTailRecovery measures the full recovery path — decode,
// restore, and trace-tail replay — reporting replayed events per second.
func BenchmarkTailRecovery(b *testing.B) {
	cfg := soakCfg(7)
	s := chaos.StartSoak(cfg)
	for i := 0; i < 300; i++ {
		s.Step()
	}
	snap, err := s.Checkpoint()
	if err != nil {
		b.Fatal(err)
	}
	for s.NextOp() <= cfg.Ops {
		s.Step()
	}
	var events int
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rec, err := s.Recover(snap)
		if err != nil {
			b.Fatal(err)
		}
		events += rec.TailEvents
	}
	b.StopTimer()
	if b.Elapsed() > 0 {
		b.ReportMetric(float64(events)/b.Elapsed().Seconds(), "events/s")
	}
}

// TestRestoreNamesSectionAndOffset pins the restore-error contract: a
// section whose payload passes the CRC but truncates mid-gob must fail
// with an error that names the section, carries its container offset,
// and stays errors.Is-matchable against ErrBadRecord.
func TestRestoreNamesSectionAndOffset(t *testing.T) {
	s := chaos.StartSoak(soakCfg(11))
	for i := 0; i < 50; i++ {
		s.Step()
	}
	snap, err := s.Checkpoint()
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"mm/as", "kernel", "hw/machine", "core/manager"} {
		t.Run(name, func(t *testing.T) {
			st, err := snapshot.Decode(snap)
			if err != nil {
				t.Fatal(err)
			}
			// Drop the payload's final byte and re-encode: the CRC is
			// recomputed over the truncated payload, so the container
			// decodes cleanly and the gob failure is Restore's to report.
			found := false
			for i := range st.Sections {
				if st.Sections[i].Name == name {
					d := st.Sections[i].Data
					if len(d) == 0 {
						t.Fatalf("section %q empty", name)
					}
					st.Sections[i].Data = d[:len(d)-1]
					found = true
				}
			}
			if !found {
				t.Fatalf("section %q missing from checkpoint", name)
			}
			cut, err := snapshot.Decode(snapshot.Encode(st))
			if err != nil {
				t.Fatalf("truncated container must still decode (CRC-valid), got %v", err)
			}
			var off int64 = -1
			for _, sec := range cut.Sections {
				if sec.Name == name {
					off = sec.Offset
				}
			}
			_, _, rerr := snapshot.Restore(cut)
			if rerr == nil {
				t.Fatal("Restore succeeded on a truncated section")
			}
			if !errors.Is(rerr, snapshot.ErrBadRecord) {
				t.Errorf("errors.Is(%v, ErrBadRecord) = false", rerr)
			}
			if !strings.Contains(rerr.Error(), fmt.Sprintf("%q", name)) {
				t.Errorf("error does not name section %q: %v", name, rerr)
			}
			if !strings.Contains(rerr.Error(), fmt.Sprintf("offset %d", off)) {
				t.Errorf("error does not carry offset %d: %v", off, rerr)
			}
		})
	}
}

// BenchmarkRingAppend measures the atomic checkpoint append (write,
// fsync, rename, prune) at steady state.
func BenchmarkRingAppend(b *testing.B) {
	s := chaos.StartSoak(soakCfg(13))
	for i := 0; i < 100; i++ {
		s.Step()
	}
	snap, err := s.Checkpoint()
	if err != nil {
		b.Fatal(err)
	}
	r, err := snapshot.NewRing(b.TempDir(), "bench", 4)
	if err != nil {
		b.Fatal(err)
	}
	b.SetBytes(int64(len(snap)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := r.Append(i, snap); err != nil {
			b.Fatal(err)
		}
	}
}

// machineImage mirrors the hw/machine section's payload; gob matches
// fields by name, so tests can rewrite the section without the
// package's unexported type.
type machineImage struct {
	FrameWatermark pagetable.Frame
	Cores          []hw.CoreSnap
}

// soakState checkpoints a short crash soak and decodes the container.
func soakState(t *testing.T) *snapshot.State {
	t.Helper()
	s := chaos.StartSoak(soakCfg(11))
	for i := 0; i < 50; i++ {
		s.Step()
	}
	snap, err := s.Checkpoint()
	if err != nil {
		t.Fatal(err)
	}
	st, err := snapshot.Decode(snap)
	if err != nil {
		t.Fatal(err)
	}
	return st
}

// editMachine rewrites st's hw/machine section through edit and returns
// the re-encoded, re-decoded state (CRC recomputed, so the container is
// valid) and the section's container offset.
func editMachine(t *testing.T, st *snapshot.State, edit func(*machineImage)) (*snapshot.State, int64) {
	t.Helper()
	for i := range st.Sections {
		if st.Sections[i].Name != "hw/machine" {
			continue
		}
		var m machineImage
		if err := gob.NewDecoder(bytes.NewReader(st.Sections[i].Data)).Decode(&m); err != nil {
			t.Fatal(err)
		}
		edit(&m)
		var buf bytes.Buffer
		if err := gob.NewEncoder(&buf).Encode(m); err != nil {
			t.Fatal(err)
		}
		st.Sections[i].Data = buf.Bytes()
		out, err := snapshot.Decode(snapshot.Encode(st))
		if err != nil {
			t.Fatalf("edited container must still decode, got %v", err)
		}
		for _, sec := range out.Sections {
			if sec.Name == "hw/machine" {
				return out, sec.Offset
			}
		}
	}
	t.Fatal("hw/machine section missing from checkpoint")
	return nil, 0
}

// TestRestoreRejectsCorruptMachine feeds Restore CRC-valid snapshots
// whose hw/machine image cannot fit the machine the header boots. Each
// must fail with ErrBadRecord naming the section and its offset, never
// panic.
func TestRestoreRejectsCorruptMachine(t *testing.T) {
	for _, tc := range []struct {
		name string
		edit func(*machineImage)
	}{
		{"tlb image past capacity", func(m *machineImage) {
			img := &m.Cores[0].TLB
			img.Slots = append(img.Slots, make([]tlb.SlotState, tlb.DefaultCapacity+1-len(img.Slots))...)
		}},
		{"set hands on a fully associative tlb", func(m *machineImage) {
			m.Cores[0].TLB.Hands = append(m.Cores[0].TLB.Hands, 0)
		}},
		{"clock hand past capacity", func(m *machineImage) {
			m.Cores[0].TLB.Hand = tlb.DefaultCapacity
		}},
		{"frame watermark below mapped frames", func(m *machineImage) {
			m.FrameWatermark = 0
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			st, off := editMachine(t, soakState(t), tc.edit)
			sys, tasks, err := snapshot.Restore(st)
			if err == nil {
				t.Fatal("Restore accepted a corrupt hw/machine section")
			}
			if sys != nil || tasks != nil {
				t.Error("Restore returned a system alongside its error")
			}
			if !errors.Is(err, snapshot.ErrBadRecord) {
				t.Errorf("errors.Is(%v, ErrBadRecord) = false", err)
			}
			if want := fmt.Sprintf("section %q at offset %d", "hw/machine", off); !strings.Contains(err.Error(), want) {
				t.Errorf("error %q does not contain %q", err, want)
			}
		})
	}
}

// TestRestoreLegacyFullCapacityImage restores a snapshot whose TLB
// images are padded to full capacity, as every image was before they
// were trimmed to the last non-empty slot: it must load, and its
// re-capture must equal the trimmed capture byte for byte.
func TestRestoreLegacyFullCapacityImage(t *testing.T) {
	trimmed := soakState(t)
	var padded bool
	legacy, _ := editMachine(t, soakState(t), func(m *machineImage) {
		for i := range m.Cores {
			img := &m.Cores[i].TLB
			if len(img.Slots) < tlb.DefaultCapacity {
				padded = true
			}
			img.Slots = append(img.Slots, make([]tlb.SlotState, tlb.DefaultCapacity-len(img.Slots))...)
		}
	})
	if !padded {
		t.Fatal("fixture TLBs are already full; padding tests nothing")
	}
	sys, _, err := snapshot.Restore(legacy)
	if err != nil {
		t.Fatalf("Restore of a full-capacity image: %v", err)
	}
	re, err := snapshot.Capture(sys, legacy.Meta.Header, legacy.Meta.Clock, legacy.Meta.EventIndex)
	if err != nil {
		t.Fatal(err)
	}
	for _, sec := range re.Sections {
		want, ok := trimmed.Section(sec.Name)
		if !ok {
			t.Fatalf("re-capture has section %q the original lacks", sec.Name)
		}
		if !bytes.Equal(sec.Data, want) {
			t.Errorf("section %q: re-capture of the legacy image differs from the trimmed capture", sec.Name)
		}
	}
}
