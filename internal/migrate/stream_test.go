package migrate

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"errors"
	"io"
	"net"
	"reflect"
	"strings"
	"testing"

	"govisor/internal/core"
	"govisor/internal/faultnet"
	"govisor/internal/isa"
	"govisor/internal/mem"
)

// vmSnap is a comparable digest of guest-visible state: architectural
// registers (including the cycle counter), a hash of all of RAM as the
// guest would read it (ReadRaw zero-fills absent pages), and console
// output.
type vmSnap struct {
	arch core.ArchState
	ram  [sha256.Size]byte
	uart string
}

func snapVM(vm *core.VM) vmSnap {
	h := sha256.New()
	buf := make([]byte, isa.PageSize)
	for gfn := uint64(0); gfn < vm.Mem.Pages(); gfn++ {
		vm.Mem.ReadRaw(gfn, buf)
		h.Write(buf)
	}
	var s vmSnap
	s.arch = vm.CaptureArch()
	copy(s.ram[:], h.Sum(nil))
	s.uart = vm.Output()
	return s
}

// snapDigest folds snapVM's guest-visible state into one pinnable hex
// digest: the architectural state in little-endian field order, the RAM
// hash, then the console output.
func snapDigest(t *testing.T, vm *core.VM) string {
	t.Helper()
	s := snapVM(vm)
	h := sha256.New()
	if err := binary.Write(h, binary.LittleEndian, s.arch); err != nil {
		t.Fatal(err)
	}
	h.Write(s.ram[:])
	h.Write([]byte(s.uart))
	return hex.EncodeToString(h.Sum(nil))
}

// pinnedMigration is one fault-free migration and its expected outcome.
// The Dirty guest (pages, think) warms up for warm cycles in ram bytes of
// guest RAM; the destination then runs onward for onwardCycles.
type pinnedMigration struct {
	name                    string
	mode                    Mode
	chunk                   int // PostCopyPushChunk
	ram, pages, think, warm uint64

	rep                               Report
	dstDirty, dstPresent, onwardFills uint64
	src, dst, onward                  string // snapDigest after the migration, and of dst after running onward
}

const onwardCycles = 30_000_000

// pinnedMigrations is the specification the engine is held to. Every
// value was recorded from the original in-process implementation of the
// three algorithms (page copies by direct memory access, no wire), which
// the streamed engine replaced after proving itself byte-identical to it.
// The first four cases are the 2 MiB pairs the rest of this package uses;
// the f7-* cases are one F7 configuration per mode at the benchmark's
// 8 MiB size and warm-up. Budgets are fixed rather than raceScale'd, since
// the pins hold only at the budgets they were recorded with.
var pinnedMigrations = []pinnedMigration{
	{
		name: "precopy", mode: PreCopy, chunk: 0,
		ram: vmRAM, pages: 16, think: 2000, warm: 5_000_000,
		rep: Report{Mode: PreCopy, TotalCycles: 115934, DowntimeCycles: 43576, BytesSent: 144944,
			RemoteFills: 0, Converged: true, Rounds: []Round{
				{22, 72358}, {13, 43576},
			}},
		dstDirty: 0, dstPresent: 22, onwardFills: 0,
		src:    "962291ce38fcb09769540b86d876ae92d977f03b0da5cb057961721f6d4f73a3",
		dst:    "03ab28e02ec2a81a28fa4baf0e2a9cce6af6d47fcbe66114cdc848c089248bb2",
		onward: "7b866d211a4918b517672786f245f0a934800187fdb5cbc18429a442399d0918",
	},
	{
		name: "stopandcopy", mode: StopAndCopy, chunk: 0,
		ram: vmRAM, pages: 16, think: 2000, warm: 5_000_000,
		rep: Report{Mode: StopAndCopy, TotalCycles: 73177, DowntimeCycles: 73177, BytesSent: 91488,
			RemoteFills: 0, Converged: true, Rounds: []Round{
				{22, 73177},
			}},
		dstDirty: 0, dstPresent: 22, onwardFills: 0,
		src:    "6acd327e818f699f82c35f6b2d63eb516e444ea1bd59b2ff838f61d560f0a916",
		dst:    "3e605c38745ee272648276ca322d09b8a5e949fe53632b352b647f2c06565d5a",
		onward: "362041beb6b6ce94829af1becc116f69ccef17eff802a2fb29b04d9349b6c245",
	},
	{
		name: "postcopy-push", mode: PostCopy, chunk: 8,
		ram: vmRAM, pages: 16, think: 2000, warm: 5_000_000,
		rep: Report{Mode: PostCopy, TotalCycles: 173187, DowntimeCycles: 819, BytesSent: 91488,
			RemoteFills: 2, Converged: true},
		dstDirty: 2, dstPresent: 22, onwardFills: 2,
		src:    "fb3a52388c39dd6f81da0bd50b14e66fb1a3cc357924712429f08dccf73fa475",
		dst:    "32f0e85e1e3173ac706e53a2c3adc95b65033f67b972949b15c68522ce98cc41",
		onward: "dd998974da196e4079c2fee86a7e9f725458eb2027837ac0a86d7785f2db9587",
	},
	{
		name: "postcopy-demand", mode: PostCopy, chunk: 0,
		ram: vmRAM, pages: 16, think: 2000, warm: 5_000_000,
		rep: Report{Mode: PostCopy, TotalCycles: 819, DowntimeCycles: 819, BytesSent: 1024,
			RemoteFills: 0, Converged: true},
		dstDirty: 0, dstPresent: 0, onwardFills: 20,
		src:    "fb3a52388c39dd6f81da0bd50b14e66fb1a3cc357924712429f08dccf73fa475",
		dst:    "4b5bc103369e89de5c43a34845adc7f53be0f46e5d8db078c3c8a3d8f8791cb0",
		onward: "64e3bbde3a73bc9da335bd7e1e83d3a1f6a5ed1787ca7af0e75ae1609ce3bee1",
	},
	{
		name: "f7-precopy-heavy", mode: PreCopy, chunk: 0,
		ram: 8 << 20, pages: 512, think: 0, warm: 10_000_000,
		rep: Report{Mode: PreCopy, TotalCycles: 54009488, DowntimeCycles: 1688076, BytesSent: 67524176,
			RemoteFills: 0, Converged: false, Rounds: []Round{
				{518, 1703702}, {513, 1687257}, {513, 1687257},
				{513, 1687257}, {513, 1687257}, {513, 1687257},
				{513, 1687257}, {513, 1687257}, {513, 1687257},
				{513, 1687257}, {513, 1687257}, {513, 1687257},
				{513, 1687257}, {513, 1687257}, {513, 1687257},
				{513, 1687257}, {513, 1687257}, {513, 1687257},
				{513, 1687257}, {513, 1687257}, {513, 1687257},
				{513, 1687257}, {513, 1687257}, {513, 1687257},
				{513, 1687257}, {513, 1687257}, {513, 1687257},
				{513, 1687257}, {513, 1687257}, {513, 1687257},
				{513, 1687257}, {513, 1688076},
			}},
		dstDirty: 0, dstPresent: 518, onwardFills: 0,
		src:    "132a4d97f583351d50046427e43e1874c4784a959e6ae61af03dafbfaecec173",
		dst:    "28ca4030e26e0359db9c0d0d2852b7156a197d8a922f83cfb4a9066e0e4299dd",
		onward: "6e37dfd9b81ea76912ae818eed0e6981b4f4833f4daada549e77f00183085fd8",
	},
	{
		name: "f7-stopandcopy-light", mode: StopAndCopy, chunk: 0,
		ram: 8 << 20, pages: 8, think: 5000, warm: 10_000_000,
		rep: Report{Mode: StopAndCopy, TotalCycles: 46865, DowntimeCycles: 46865, BytesSent: 58592,
			RemoteFills: 0, Converged: true, Rounds: []Round{
				{14, 46865},
			}},
		dstDirty: 0, dstPresent: 14, onwardFills: 0,
		src:    "5e2ab83e05b4408e7768633c7898fdd2013eab7836a214cde35e2b79b770af15",
		dst:    "ff1f4cd8a3c120a188d507985973869aece7fe6901eb36472bc7350e6afcde60",
		onward: "7524deba0a3ebcb32d05e251ca3668198866c55f9ff8b8e57069359a85f8c49d",
	},
	{
		name: "f7-postcopy-medium", mode: PostCopy, chunk: 256,
		ram: 8 << 20, pages: 128, think: 500, warm: 10_000_000,
		rep: Report{Mode: PostCopy, TotalCycles: 441625, DowntimeCycles: 819, BytesSent: 552032,
			RemoteFills: 0, Converged: true},
		dstDirty: 129, dstPresent: 134, onwardFills: 0,
		src:    "9dd699f930dd612bded0901c1a6704fe654f37fb347f8c7d997c260e5bce8f66",
		dst:    "1fef8a677844bedec84fa1d249037d2689bd971c4ae9f9c799c8a18622419f67",
		onward: "1ad4e3b3bbe8cd8f9d559f781840e45dee8a4bce2ce6019d2f24d08735f5371f",
	},
}

// TestStreamFaultFreeMatchesInProcess holds a clean-pipe migration in
// every mode to the in-process engine's pinned verdict: the full Report
// (rounds, bytes, downtime, fills, convergence), the source and
// destination guest-visible state, the destination's dirty/present
// accounting, and the destination's state and remote fills after it runs
// onward.
func TestStreamFaultFreeMatchesInProcess(t *testing.T) {
	if raceScale != 1 {
		t.Skip("pinned at full guest budgets, which the race detector makes too slow; the other migrate tests drive the same engine under -race")
	}
	for _, tc := range pinnedMigrations {
		t.Run(tc.name, func(t *testing.T) {
			src, dst := sizedPair(t, tc.ram, tc.pages, tc.think, tc.warm)
			opt := DefaultStreamOptions()
			opt.Mode = tc.mode
			opt.PostCopyPushChunk = tc.chunk
			rep, err := StreamMigrate(src, dst, opt)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(rep.Report, tc.rep) {
				t.Errorf("report diverged from the pinned verdict:\ngot  %+v\nwant %+v", rep.Report, tc.rep)
			}
			if rep.Retries != 0 || rep.Resumes != 0 || rep.Aborted {
				t.Errorf("fault-free run reported retries=%d resumes=%d aborted=%v",
					rep.Retries, rep.Resumes, rep.Aborted)
			}
			if rep.WireBytes == 0 {
				t.Errorf("no physical wire bytes accounted")
			}
			if tc.mode != PostCopy && rep.WireBytes >= rep.BytesSent {
				t.Errorf("zero-run batching ineffective: %d physical vs %d logical bytes",
					rep.WireBytes, rep.BytesSent)
			}
			if src.State != core.StatePaused {
				t.Errorf("source state %v, want paused", src.State)
			}
			if got := snapDigest(t, src); got != tc.src {
				t.Errorf("source state digest %s, pinned %s", got, tc.src)
			}
			if got := snapDigest(t, dst); got != tc.dst {
				t.Errorf("destination state digest %s, pinned %s", got, tc.dst)
			}
			if d, p := dst.Mem.DirtyCount(), dst.Mem.Present(); d != tc.dstDirty || p != tc.dstPresent {
				t.Errorf("destination dirty/present %d/%d, pinned %d/%d", d, p, tc.dstDirty, tc.dstPresent)
			}
			// Run the destination onward: demand fills (post-copy) and
			// ordinary execution must land on the pinned state too.
			dst.Step(onwardCycles)
			if got := snapDigest(t, dst); got != tc.onward {
				t.Errorf("post-migration execution digest %s, pinned %s", got, tc.onward)
			}
			if dst.Stats.RemoteFills != tc.onwardFills {
				t.Errorf("remote fills %d, pinned %d", dst.Stats.RemoteFills, tc.onwardFills)
			}
		})
	}
}

// requireCompleted checks a finished streamed migration moved the paused
// source's exact state (registers modulo the absorbed downtime, RAM) to
// the destination, then verifies the destination executes.
func requireCompleted(t *testing.T, src, dst *core.VM, rep StreamReport) {
	t.Helper()
	if src.State != core.StatePaused {
		t.Fatalf("completed migration left source %v", src.State)
	}
	ss, ds := snapVM(src), snapVM(dst)
	want := ss.arch
	want.Cycles += rep.DowntimeCycles
	if ds.arch != want {
		t.Fatalf("destination architectural state differs from paused source (+downtime)")
	}
	if ds.ram != ss.ram {
		t.Fatalf("destination RAM differs from paused source RAM")
	}
	verifyDestRuns(t, dst)
}

// TestStreamSeededFaultSchedules runs the engine under deterministic
// fault schedules. Every run must either complete with the destination
// byte-identical to the paused source, or abort with the source's
// guest-visible state bit-for-bit unchanged from the instant it paused.
func TestStreamSeededFaultSchedules(t *testing.T) {
	cases := []struct {
		name string
		mode Mode
		plan faultnet.Plan
	}{
		{"precopy-mixed", PreCopy, faultnet.Plan{Seed: 1, MeanGapBytes: 60_000, MaxFaults: 3}},
		{"precopy-aggressive", PreCopy, faultnet.Plan{Seed: 6, MeanGapBytes: 25_000, MaxFaults: 6}},
		{"precopy-corrupt", PreCopy, faultnet.Plan{Seed: 3, MeanGapBytes: 50_000, MaxFaults: 3,
			Kinds: []faultnet.Kind{faultnet.KindCorrupt}}},
		{"stopandcopy-cuts", StopAndCopy, faultnet.Plan{Seed: 4, MeanGapBytes: 40_000, MaxFaults: 3,
			Kinds: []faultnet.Kind{faultnet.KindReset, faultnet.KindPartialWrite}}},
		{"precopy-acks-delays", PreCopy, faultnet.Plan{Seed: 5, MeanGapBytes: 45_000, MaxFaults: 4,
			Kinds: []faultnet.Kind{faultnet.KindReadReset, faultnet.KindDelay}}},
		{"postcopy-push-mixed", PostCopy, faultnet.Plan{Seed: 7, MeanGapBytes: 50_000, MaxFaults: 3}},
	}
	var completed, resumed, faulted int
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			src, dst := pair(t, 16, 2000)
			inj := faultnet.NewInjector(tc.plan)
			var probe *vmSnap
			opt := DefaultStreamOptions()
			opt.Mode = tc.mode
			if tc.mode == PostCopy {
				opt.PostCopyPushChunk = 8
			}
			opt.MaxAttempts = 8
			opt.Wire = PipeWire(inj.Wrap)
			opt.DelayCycles = inj.TakeDelayCycles
			opt.PauseProbe = func() { s := snapVM(src); probe = &s }

			rep, err := StreamMigrate(src, dst, opt)
			if inj.Stats().Total() == 0 {
				t.Errorf("fault plan injected nothing — schedule is vacuous: %+v", inj.Stats())
			} else {
				faulted++
			}
			switch {
			case err == nil:
				completed++
				if rep.Resumes > 0 {
					resumed++
				}
				if tc.mode == PostCopy {
					// The destination already ran; prove it executes and
					// every source page landed despite the faults.
					verifyDestRuns(t, dst)
					for gfn := uint64(0); gfn < src.Mem.Pages(); gfn++ {
						if src.Mem.Frame(gfn) != mem.NoFrame && dst.Mem.Frame(gfn) == mem.NoFrame {
							t.Fatalf("present gfn %d never landed on the destination", gfn)
						}
					}
				} else {
					requireCompleted(t, src, dst, rep)
				}
			case errors.Is(err, ErrAborted):
				if !rep.Aborted {
					t.Fatalf("ErrAborted without rep.Aborted")
				}
				if src.State != core.StateRunning {
					t.Fatalf("aborted migration left source %v", src.State)
				}
				if probe != nil {
					if now := snapVM(src); now != *probe {
						t.Fatalf("rollback is not bit-for-bit: source changed across the aborted brown-out")
					}
				}
				if dst.State != core.StateCreated {
					t.Fatalf("aborted migration left destination %v", dst.State)
				}
				verifyDestRuns(t, src) // the rolled-back source keeps executing
			default:
				t.Fatalf("unexpected error class: %v", err)
			}
		})
	}
	if completed == 0 {
		t.Errorf("no seeded schedule completed — retry/resume path unproven")
	}
	if resumed == 0 {
		t.Errorf("no seeded schedule resumed a dropped connection — resume path unproven")
	}
	if faulted < 5 {
		t.Errorf("only %d schedules injected faults; need ≥5", faulted)
	}
}

// TestStreamResumeResendsOnlySinceLastAck forces connection drops and
// proves the engine resumes from the destination's acked-round state
// instead of restarting, with the result still byte-identical.
func TestStreamResumeResendsOnlySinceLastAck(t *testing.T) {
	src, dst := pair(t, 16, 2000)
	inj := faultnet.NewInjector(faultnet.Plan{
		Seed:         11,
		MeanGapBytes: 50_000,
		MaxFaults:    2,
		Kinds:        []faultnet.Kind{faultnet.KindReset},
	})
	opt := DefaultStreamOptions()
	opt.MaxAttempts = 8
	opt.Wire = PipeWire(inj.Wrap)
	rep, err := StreamMigrate(src, dst, opt)
	if err != nil {
		t.Fatalf("migration did not survive resets: %v", err)
	}
	if rep.Resumes == 0 || rep.Retries == 0 {
		t.Fatalf("resets injected (%d) but no resume recorded: retries=%d resumes=%d",
			inj.Stats().Resets, rep.Retries, rep.Resumes)
	}
	requireCompleted(t, src, dst, rep)
}

// TestStreamAbortRollsBackOnBudget blows the downtime budget on a clean
// wire: the engine must abort, resume the source with state bit-for-bit
// as it was at Pause, and leave the destination unadopted.
func TestStreamAbortRollsBackOnBudget(t *testing.T) {
	src, dst := pair(t, 16, 2000)
	var probe *vmSnap
	opt := DefaultStreamOptions()
	opt.DowntimeBudget = 1 // any brown-out transfer exceeds this
	opt.PauseProbe = func() { s := snapVM(src); probe = &s }
	rep, err := StreamMigrate(src, dst, opt)
	if !errors.Is(err, ErrAborted) {
		t.Fatalf("expected ErrAborted, got %v", err)
	}
	if !rep.Aborted {
		t.Fatalf("report not marked aborted")
	}
	if probe == nil {
		t.Fatalf("budget abort must happen during brown-out, after Pause")
	}
	if src.State != core.StateRunning {
		t.Fatalf("source state %v after rollback", src.State)
	}
	if now := snapVM(src); now != *probe {
		t.Fatalf("rollback is not bit-for-bit")
	}
	if dst.State != core.StateCreated {
		t.Fatalf("destination %v after abort, want untouched StateCreated", dst.State)
	}
	verifyDestRuns(t, src)
}

// TestStreamDemandOnlyServesAndReleases: demand-only post-copy over the
// wire serves faults through the background server, and once every
// present page has crossed, both ends release — the destination clears
// its PageSource, the source server exits.
func TestStreamDemandOnlyServesAndReleases(t *testing.T) {
	src, dst := pair(t, 8, 2000)
	opt := DefaultStreamOptions()
	opt.Mode = PostCopy
	opt.PostCopyPushChunk = 0
	rep, err := StreamMigrate(src, dst, opt)
	if err != nil {
		t.Fatal(err)
	}
	if rep.DowntimeCycles != opt.Link.TxCycles(cpuStateWireSize) {
		t.Errorf("demand-only downtime %d, want bare CPU-state transfer", rep.DowntimeCycles)
	}
	if dst.PageSource == nil {
		t.Fatalf("no PageSource installed on the destination")
	}
	verifyDestRuns(t, dst) // real demand faults pull over the wire
	if dst.Stats.RemoteFills == 0 {
		t.Fatalf("destination ran without any remote fills")
	}
	// Drain the rest of the present set through the hook, as further
	// faults would, and prove the source is released.
	hook := dst.PageSource
	if hook == nil {
		t.Fatalf("PageSource cleared before coverage completed")
	}
	for gfn := uint64(0); gfn < src.Mem.Pages(); gfn++ {
		if src.Mem.Frame(gfn) != mem.NoFrame {
			hook(gfn)
		}
	}
	if dst.PageSource != nil {
		t.Fatalf("PageSource still installed after full coverage — source pinned")
	}
	if _, ok := hook(0); ok {
		t.Fatalf("hook re-served an already-transferred page")
	}
}

// TestStreamOverTCP runs the full engine over loopback TCP.
func TestStreamOverTCP(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Skipf("loopback TCP unavailable: %v", err)
	}
	defer ln.Close()
	wire := func() (io.ReadWriteCloser, io.ReadWriteCloser, error) {
		type res struct {
			c   net.Conn
			err error
		}
		ch := make(chan res, 1)
		go func() {
			c, err := ln.Accept()
			ch <- res{c, err}
		}()
		sc, err := net.Dial("tcp", ln.Addr().String())
		if err != nil {
			return nil, nil, err
		}
		r := <-ch
		if r.err != nil {
			sc.Close()
			return nil, nil, r.err
		}
		return sc, r.c, nil
	}
	src, dst := pair(t, 16, 2000)
	opt := DefaultStreamOptions()
	opt.Wire = wire
	rep, err := StreamMigrate(src, dst, opt)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Retries != 0 {
		t.Errorf("clean TCP run recorded %d retries", rep.Retries)
	}
	requireCompleted(t, src, dst, rep)
}

// TestStreamValidatesPair: the engine refuses an invalid pair with a clean
// error and leaves the source running untouched. Migrating a VM onto itself,
// or onto a second VM shell over the same guest-physical space, would read
// and write the same frames and silently corrupt the guest.
func TestStreamValidatesPair(t *testing.T) {
	cases := []struct {
		name string
		dst  func(src, dst *core.VM) *core.VM
		want string
	}{
		{"self-migration", func(src, _ *core.VM) *core.VM { return src }, "same VM"},
		{"shared-guest-physical", func(src, dst *core.VM) *core.VM {
			alias := *dst
			alias.Mem = src.Mem
			return &alias
		}, "guest-physical"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			src, dst := pair(t, 8, 2000)
			_, err := StreamMigrate(src, tc.dst(src, dst), DefaultStreamOptions())
			if err == nil {
				t.Fatalf("invalid pair accepted")
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("unexpected error: %v", err)
			}
			if src.State != core.StateRunning {
				t.Fatalf("rejected migration changed source state to %v", src.State)
			}
		})
	}
}
