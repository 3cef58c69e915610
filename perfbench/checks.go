package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"io"
	"math"
	"reflect"

	"mlid"
	"mlid/internal/verify"
)

// tally counts the benchmark's operations. An error return and a broken
// output check each count as one failed operation.
type tally struct {
	attempted, failed int
	failures          []string
}

func (t *tally) record(what string, err error) {
	t.attempted++
	if err != nil {
		t.failed++
		t.failures = append(t.failures, fmt.Sprintf("%s: %v", what, err))
	}
}

// digest hashes every exported field of v, recursively, as name=value
// lines. Zero-valued fields are skipped, so a field added to a result type
// later changes the digest only where it carries a value. Host time never
// enters: the hashed types hold simulated quantities only.
func digest(v any) string {
	h := sha256.New()
	writeFields(h, "", reflect.ValueOf(v))
	return hex.EncodeToString(h.Sum(nil))
}

func writeFields(w io.Writer, path string, v reflect.Value) {
	switch v.Kind() {
	case reflect.Struct:
		t := v.Type()
		for i := 0; i < v.NumField(); i++ {
			if f := t.Field(i); f.IsExported() && !v.Field(i).IsZero() {
				writeFields(w, path+"."+f.Name, v.Field(i))
			}
		}
	case reflect.Slice, reflect.Array:
		for i := 0; i < v.Len(); i++ {
			writeFields(w, fmt.Sprintf("%s[%d]", path, i), v.Index(i))
		}
	case reflect.Pointer, reflect.Interface:
		if !v.IsNil() {
			writeFields(w, path, v.Elem())
		}
	default:
		fmt.Fprintf(w, "%s=%v\n", path, v.Interface())
	}
}

// checkDigests prints the first iteration's output digest and checks that
// every iteration produced it and that it matches the digest recorded for
// the default seed; want is empty when nothing is recorded for this input.
func checkDigests(c *tally, digests []string, want string) {
	fmt.Printf("digest %s\n", digests[0])
	var err error
	for i, d := range digests {
		if d != digests[0] {
			err = fmt.Errorf("iteration %d output digest %.16s differs from iteration 0's %.16s", i, d, digests[0])
			break
		}
	}
	c.record("deterministic across iterations", err)
	err = nil
	if want != "" && digests[0] != want {
		err = fmt.Errorf("output digest %.16s, recorded %.16s", digests[0], want)
	}
	c.record("digest matches the recorded one", err)
}

// conservation checks generated = delivered + failed + unreachable +
// dropped + in flight. Without the reliable transport a packet dropped at a
// dead link is lost; none of the benchmark's direct runs enable it.
func conservation(r mlid.SimResult) error {
	got := r.TotalDelivered + r.Failed + r.UnreachableDegraded + r.DroppedTotal + r.InFlightAtEnd
	if got != r.TotalGenerated {
		return fmt.Errorf("delivered %d + failed %d + unreachable %d + dropped %d + in flight %d != generated %d",
			r.TotalDelivered, r.Failed, r.UnreachableDegraded, r.DroppedTotal, r.InFlightAtEnd, r.TotalGenerated)
	}
	return nil
}

// sameTables checks that two subnets carry identical LID ranges and
// forwarding tables.
func sameTables(want, got *mlid.Subnet) error {
	if len(want.Endports) != len(got.Endports) || len(want.LFTs) != len(got.LFTs) {
		return fmt.Errorf("shape differs: %d/%d endports, %d/%d tables",
			len(want.Endports), len(got.Endports), len(want.LFTs), len(got.LFTs))
	}
	for p := range want.Endports {
		if want.Endports[p] != got.Endports[p] {
			return fmt.Errorf("node %d LID range %v, want %v", p, got.Endports[p], want.Endports[p])
		}
	}
	return sameLFTs(want.LFTs, got.LFTs)
}

func sameLFTs(want, got []*mlid.LFT) error {
	if len(want) != len(got) {
		return fmt.Errorf("%d tables, want %d", len(got), len(want))
	}
	for s := range want {
		if a, b := want[s].Entries(), got[s].Entries(); !bytes.Equal(a, b) {
			for lid := range a {
				if lid >= len(b) || a[lid] != b[lid] {
					return fmt.Errorf("switch %d DLID %d differs", s, lid)
				}
			}
			return fmt.Errorf("switch %d table size %d, want %d", s, len(b), len(a))
		}
	}
	return nil
}

// verifyClean fails on any error-severity finding.
func verifyClean(rep *verify.Report) error {
	if rep.Errors() == 0 {
		return nil
	}
	for _, f := range rep.Findings {
		if f.Severity == verify.Error {
			return fmt.Errorf("%d error findings, first: %s", rep.Errors(), f)
		}
	}
	return fmt.Errorf("%d error findings", rep.Errors())
}

// verifyOptions are the options cmd/ibverify passes by default.
func verifyOptions() verify.Options { return verify.Options{VLs: 1} }

// verifyPristine statically verifies configured subnets, one operation each.
func verifyPristine(c *tally, subnets []*mlid.Subnet) {
	for _, sn := range subnets {
		rep, err := verify.Run(verify.FromSubnet(sn), verifyOptions())
		if err == nil {
			err = verifyClean(rep)
		}
		c.record(fmt.Sprintf("verify pristine %s %s", sn.Tree, sn.Engine.Name()), err)
	}
}

// observation1 evaluates the paper's Observation 1 (MLID peak accepted
// traffic at least SLID's at 1 VL under uniform traffic) and returns the
// geometric mean of the MLID/SLID 1-VL peak ratio over the uniform figures.
func observation1(figs []mlid.EvalFigure) (float64, error) {
	logSum, n := 0.0, 0
	for _, f := range figs {
		if f.Spec.Pattern != "uniform" {
			continue
		}
		m, s := f.Curve("MLID 1VL"), f.Curve("SLID 1VL")
		if m == nil || s == nil || s.PeakAccepted() <= 0 {
			return 0, fmt.Errorf("%s lacks 1-VL curves", f.Spec.ID)
		}
		logSum += math.Log(m.PeakAccepted() / s.PeakAccepted())
		n++
	}
	if n == 0 {
		return 0, fmt.Errorf("no uniform figures")
	}
	ratio := math.Exp(logSum / float64(n))
	for _, o := range mlid.CheckObservations(figs) {
		if o.ID == "O1" && !o.Holds {
			return ratio, fmt.Errorf("observation 1 fails: %s", o.Detail)
		}
	}
	return ratio, nil
}
