package experiments

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"rowhammer/internal/tensor"
)

func TestTable1ShapesAndOrdering(t *testing.T) {
	rows, err := Table1(256, 5)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 20 {
		t.Fatalf("Table I has %d rows, want 20", len(rows))
	}
	byName := map[string]Table1Row{}
	for _, r := range rows {
		if r.MeasuredFlipsPerPage < 0 {
			t.Fatalf("%s: negative measurement", r.Device)
		}
		byName[r.Device] = r
	}
	// Relative ordering of hot vs cold chips must be preserved.
	if !(byName["K1"].MeasuredFlipsPerPage > byName["M1"].MeasuredFlipsPerPage) {
		t.Fatal("K1 (100.68) must out-flip M1 (2.04)")
	}
	if !(byName["F1"].MeasuredFlipsPerPage > byName["B1"].MeasuredFlipsPerPage) {
		t.Fatal("F1 (28.77) must out-flip B1 (1.05)")
	}
	// DDR3 double-sided profiling finds all weak cells: measured close
	// to the Table I value for a hot chip.
	a1 := byName["A1"]
	if math.Abs(a1.MeasuredFlipsPerPage-a1.PaperFlipsPerPage)/a1.PaperFlipsPerPage > 0.4 {
		t.Fatalf("A1 measured %.2f vs paper %.2f", a1.MeasuredFlipsPerPage, a1.PaperFlipsPerPage)
	}
}

func TestFigure2Sparsity(t *testing.T) {
	rep, err := Figure2(512, 7)
	if err != nil {
		t.Fatal(err)
	}
	if rep.TotalFlips == 0 {
		t.Fatal("no flips found")
	}
	// The paper's 0.036% vulnerable-cell figure.
	if rep.VulnerableRatio < 0.0001 || rep.VulnerableRatio > 0.001 {
		t.Fatalf("vulnerable ratio %.5f%% outside the expected band", 100*rep.VulnerableRatio)
	}
	if rep.MaxFlipsInPage < 5 {
		t.Fatalf("max flips per page %d suspiciously small", rep.MaxFlipsInPage)
	}
}

func TestFigure4ReverseOrderMapping(t *testing.T) {
	points, err := Figure4(32, 9)
	if err != nil {
		t.Fatal(err)
	}
	if len(points) != 32 {
		t.Fatalf("%d points", len(points))
	}
	// The attacker released frames for file pages N−1…0 (reverse), so
	// the FILO cache hands them back in file order: frames must follow
	// the assignment exactly, i.e. strictly increasing with file page
	// here (identity×2 assignment over a fresh contiguous buffer).
	for i := 1; i < len(points); i++ {
		if points[i].Frame <= points[i-1].Frame {
			t.Fatalf("frames not in planned order at %d: %+v", i, points[i-1:i+1])
		}
	}
}

func TestFigure5TRRShape(t *testing.T) {
	points, err := Figure5(2048, 15, 3)
	if err != nil {
		t.Fatal(err)
	}
	bySides := map[int]Figure5Point{}
	for _, p := range points {
		bySides[p.Sides] = p
	}
	if bySides[1].AvgFlipsPerPage != 0 {
		t.Fatal("single-sided must be TRR-mitigated")
	}
	if bySides[7].AvgFlipsPerPage <= 0 {
		t.Fatal("7-sided must flip on DDR4")
	}
	if !(bySides[15].AvgFlipsPerPage > bySides[7].AvgFlipsPerPage) {
		t.Fatalf("15-sided (%.2f) must out-flip 7-sided (%.2f)",
			bySides[15].AvgFlipsPerPage, bySides[7].AvgFlipsPerPage)
	}
}

func TestFigure6AggressorComparison(t *testing.T) {
	rep, err := Figure6(2048, 4)
	if err != nil {
		t.Fatal(err)
	}
	if !(rep.Avg15 > rep.Avg7) {
		t.Fatalf("15-sided avg %.2f must exceed 7-sided %.2f", rep.Avg15, rep.Avg7)
	}
	if rep.Avg7 <= 0 {
		t.Fatal("7-sided found nothing")
	}
}

func TestFigure9Probabilities(t *testing.T) {
	series := Figure9()
	if len(series) != 3 {
		t.Fatalf("%d series", len(series))
	}
	// k+l=1 on K1: 2200 pages give ≥99.99% (the appendix's claim).
	s1 := series[0]
	for i, n := range s1.PageCounts {
		// The appendix quotes 99.99%; Eq. 2 with K1's Table I value
		// gives 99.88% — same order, see EXPERIMENTS.md.
		if n == 2200 && s1.Prob[i] < 0.99 {
			t.Fatalf("p(2200 pages, 1 offset) = %v, want ≥0.99", s1.Prob[i])
		}
	}
	// More offsets → lower probability at equal page count.
	last := len(s1.PageCounts) - 1
	if !(series[0].Prob[last] >= series[1].Prob[last] && series[1].Prob[last] >= series[2].Prob[last]) {
		t.Fatal("probability must fall with required offsets")
	}
}

func TestFigure10AllChipsConverge(t *testing.T) {
	series := Figure10()
	if len(series) != 20 {
		t.Fatalf("%d series", len(series))
	}
	for _, s := range series {
		p := s.Prob[len(s.Prob)-1] // at 1M pages
		if p < 0.9 {
			t.Fatalf("%s: p at 1M pages = %v, want ≥0.9 (appendix: →1 for even the least flippy chips)", s.Device, p)
		}
	}
}

func TestFigure11SpoilerPeaks(t *testing.T) {
	rep, err := Figure11(1024, 6)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Runs) == 0 {
		t.Fatal("no contiguous run detected")
	}
	peaks := 0
	for _, c := range rep.Timings {
		if c > 425 {
			peaks++
		}
	}
	if peaks < 3 {
		t.Fatalf("%d peaks in 1024 pages, want ≥3 (every 256)", peaks)
	}
}

func TestFigure12ConflictFraction(t *testing.T) {
	rep, err := Figure12(400, 8)
	if err != nil {
		t.Fatal(err)
	}
	// About 1/16 of chunk pairs share a bank.
	if rep.ConflictFrac < 0.02 || rep.ConflictFrac > 0.15 {
		t.Fatalf("conflict fraction %.3f, want ≈1/16", rep.ConflictFrac)
	}
	if !(rep.MeanConflict > rep.MeanFast+50) {
		t.Fatalf("conflict latency %.0f not separated from fast %.0f", rep.MeanConflict, rep.MeanFast)
	}
}

func TestPlundervoltNegativeResult(t *testing.T) {
	rep := Plundervolt(11)
	if rep.PoCLoopFaults == 0 {
		t.Fatal("PoC loop must fault under deep undervolt")
	}
	if rep.QuantizedMACFaults != 0 {
		t.Fatalf("quantized MACs faulted %d times — appendix F says zero", rep.QuantizedMACFaults)
	}
	if rep.SafeOperandFaults != 0 {
		t.Fatal("safe-region operand faulted")
	}
}

func TestTable2ResNet20(t *testing.T) {
	if testing.Short() {
		t.Skip("heavy: full method comparison")
	}
	s := QuickScale()
	rows, err := Table2(s, []string{"resnet20"})
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 5 {
		t.Fatalf("%d rows", len(rows))
	}
	byMethod := map[string]Table2Row{}
	for _, r := range rows {
		t.Log(r.String())
		byMethod[r.Method] = r
	}
	cftbr := byMethod[MethodCFTBR]
	// The paper's headline shape: CFT+BR keeps ~full r_match and its
	// online ASR tracks its offline ASR; every baseline collapses.
	if cftbr.RMatch < 95 {
		t.Fatalf("CFT+BR r_match %.2f%%, want ≈100%%", cftbr.RMatch)
	}
	if cftbr.Online.ASR < cftbr.Offline.ASR-0.15 {
		t.Fatalf("CFT+BR online ASR %.3f much below offline %.3f", cftbr.Online.ASR, cftbr.Offline.ASR)
	}
	if cftbr.Online.ASR < 0.5 {
		t.Fatalf("CFT+BR online ASR %.3f too low", cftbr.Online.ASR)
	}
	for _, m := range []string{MethodBadNet, MethodFT, MethodTBT} {
		r := byMethod[m]
		if r.Offline.ASR < 0.4 {
			t.Fatalf("%s offline ASR %.3f — baseline should work offline", m, r.Offline.ASR)
		}
		if r.RMatch > 20 {
			t.Fatalf("%s r_match %.2f%% — baselines must collapse", m, r.RMatch)
		}
		if r.Online.ASR > cftbr.Online.ASR {
			t.Fatalf("%s online ASR %.3f should not beat CFT+BR %.3f", m, r.Online.ASR, cftbr.Online.ASR)
		}
	}
	// BadNet needs orders of magnitude more flips than CFT+BR offline.
	if byMethod[MethodBadNet].Offline.NFlip < 100*cftbr.Offline.NFlip {
		t.Fatal("BadNet should need vastly more flips than CFT+BR")
	}

	// %+v prints every field, floats in their shortest exact form, so
	// any moved number changes the digest.
	h := sha256.New()
	for _, r := range rows {
		fmt.Fprintf(h, "%+v\n", r)
	}
	checkGoldenDigest(t, "table2/resnet20_quick", hex.EncodeToString(h.Sum(nil)))
}

// checkGoldenDigest compares got with the "kernelset name sha256" line
// for name in testdata/golden/digests.txt (TestGoldenDigests in
// internal/pretrain owns the file), and skips on a kernel set with no
// committed line.
func checkGoldenDigest(t *testing.T, name, got string) {
	t.Helper()
	set := "portable"
	if tensor.AcceleratedKernels() {
		set = "avx2"
	}
	f, err := os.Open(filepath.Join("..", "..", "testdata", "golden", "digests.txt"))
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	for sc := bufio.NewScanner(f); sc.Scan(); {
		if fs := strings.Fields(sc.Text()); len(fs) == 3 && fs[0] == set && fs[1] == name {
			if got != fs[2] {
				t.Errorf("%s %s: digest %s, golden %s", set, name, got, fs[2])
			}
			return
		}
	}
	t.Skipf("no golden %s digest for the %s kernel set (got %s)", name, set, got)
}

func TestFigure7LossSpikes(t *testing.T) {
	if testing.Short() {
		t.Skip("heavy: full attack run")
	}
	s := QuickScale()
	rep, err := Figure7(s, "resnet20")
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Loss) != s.AttackIterations {
		t.Fatalf("loss history %d entries", len(rep.Loss))
	}
	if len(rep.BitReduceIters) == 0 {
		t.Fatal("no bit-reduction checkpoints recorded")
	}
	// The loss must fall overall despite the spikes.
	if rep.Loss[len(rep.Loss)-1] >= rep.Loss[0] {
		t.Fatalf("loss did not decrease: %v → %v", rep.Loss[0], rep.Loss[len(rep.Loss)-1])
	}
}

func TestFigure13FlipSparsity(t *testing.T) {
	if testing.Short() {
		t.Skip("heavy: two attack runs")
	}
	s := QuickScale()
	rep, err := Figure13(s, "resnet20")
	if err != nil {
		t.Fatal(err)
	}
	if rep.CFTBRSpread != 1 {
		t.Fatalf("CFT+BR spread %.2f, want 1.0 (one flip per page)", rep.CFTBRSpread)
	}
	if !(rep.TBTMaxHits > 1) {
		t.Fatalf("TBT max hits per page %d, want clustered >1", rep.TBTMaxHits)
	}
	if len(rep.TBTPages) > 2 {
		t.Fatalf("TBT touched %d pages, expected last-layer clustering", len(rep.TBTPages))
	}
}

func TestDefenseRADARAndReconstruction(t *testing.T) {
	if testing.Short() {
		t.Skip("heavy: four attack runs")
	}
	s := QuickScale()
	radar, err := DefenseRADAR(s, "resnet20")
	if err != nil {
		t.Fatal(err)
	}
	if !radar.StandardDetected {
		t.Fatal("RADAR must detect the standard (MSB-flipping) attack")
	}
	if radar.AdaptiveDetected {
		t.Fatal("RADAR must miss the MSB-avoiding adaptive attack")
	}
	// Avoiding the MSB leaves only ±64-step flips, so some ASR loss
	// is inherent; the paper claims only the detection bypass.
	if radar.AdaptiveASR < 0.15 {
		t.Fatalf("adaptive attack ASR %.3f collapsed", radar.AdaptiveASR)
	}

	rec, err := DefenseReconstruction(s, "resnet20")
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("reconstruction: unaware ASR %.3f → %.3f after recon; adaptive %.3f",
		rec.UnawareASR, rec.AfterReconASR, rec.AdaptiveASR)
	if !(rec.AfterReconASR < rec.UnawareASR) {
		t.Fatal("reconstruction should reduce the unaware attacker's ASR")
	}
	if !(rec.AdaptiveASR > rec.AfterReconASR) {
		t.Fatal("the defense-aware attacker should beat reconstruction")
	}
}

func TestDefenseDeepDyveAndPWC(t *testing.T) {
	if testing.Short() {
		t.Skip("heavy: attack + second training run")
	}
	s := QuickScale()
	dd, err := DefenseDeepDyve(s, "resnet20")
	if err != nil {
		t.Fatal(err)
	}
	if dd.RecoveredRate != 0 {
		t.Fatal("persistent faults cannot be recovered by re-querying")
	}
	if dd.OfflineASR > 0.3 && dd.ASRDespiteDefense < dd.OfflineASR/2 {
		t.Fatalf("DeepDyve should not stop the backdoor: %.3f vs %.3f", dd.ASRDespiteDefense, dd.OfflineASR)
	}

	pwc, err := DefensePWC(s, "resnet20")
	if err != nil {
		t.Fatal(err)
	}
	if !(pwc.ClusterAfter < pwc.ClusterBefore) {
		t.Fatal("PWC fine-tuning should cluster weights")
	}
}

func TestAttackTimeModel(t *testing.T) {
	m := PaperAttackTime()
	// §VII: ~400 ms per row 7-sided, so 10 flips ≈ 4 s online.
	if got := m.OnlineTime(10, 7); got != 4*time.Second {
		t.Fatalf("online time = %v, want 4s", got)
	}
	// Profiling 128 MB (32768 pages) double-sided ≈ 200 ms × ~16k rows
	// ≈ 55 min (the paper measures 94 min including scans).
	prof := m.ProfilingTime(32768, 2)
	if prof < 30*time.Minute || prof > 120*time.Minute {
		t.Fatalf("profiling time = %v, want the paper's order (~94 min)", prof)
	}
	// Unknown width interpolates linearly.
	if got := m.OnlineTime(1, 30); got != 1600*time.Millisecond {
		t.Fatalf("interpolated per-row = %v", got)
	}
}
